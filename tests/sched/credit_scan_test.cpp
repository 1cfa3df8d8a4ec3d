#include "sched/credit_scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace horse::sched::credit_scan {
namespace {

std::vector<std::int64_t> random_sorted(std::mt19937_64& rng, std::size_t n,
                                        std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  std::vector<std::int64_t> values(n);
  for (auto& value : values) value = dist(rng);
  std::sort(values.begin(), values.end());
  return values;
}

TEST(CreditScanTest, BranchlessUpperBoundMatchesStd) {
  std::mt19937_64 rng(42);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 31u, 32u, 33u, 64u, 200u}) {
    for (int trial = 0; trial < 50; ++trial) {
      // Narrow range forces duplicate runs; negatives are legal credits.
      const auto values = random_sorted(rng, n, -50, 50);
      std::uniform_int_distribution<std::int64_t> key_dist(-60, 60);
      const std::int64_t key = key_dist(rng);
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(values.begin(), values.end(), key) -
          values.begin());
      EXPECT_EQ(branchless_upper_bound(values.data(), n, key), expected)
          << "n=" << n << " key=" << key;
    }
  }
}

TEST(CreditScanTest, SimdCountLeMatchesCountIf) {
  // count_le is order-free; feed it unsorted arrays, odd lengths included
  // so every SIMD tail path runs.
  std::mt19937_64 rng(44);
  std::uniform_int_distribution<std::int64_t> dist(-1'000'000, 1'000'000);
  for (std::size_t n = 0; n <= 70; ++n) {
    std::vector<std::int64_t> values(n);
    for (auto& value : values) value = dist(rng);
    const std::int64_t key = dist(rng);
    const auto expected = static_cast<std::size_t>(std::count_if(
        values.begin(), values.end(),
        [key](std::int64_t value) { return value <= key; }));
    EXPECT_EQ(simd_count_le(values.data(), n, key), expected) << "n=" << n;
  }
}

TEST(CreditScanTest, SimdCountLeExtremeKeys) {
  const std::vector<std::int64_t> values{-5, 0, 5, 10, 10, 10, 20};
  EXPECT_EQ(simd_count_le(values.data(), values.size(),
                          std::numeric_limits<std::int64_t>::max()),
            values.size());
  EXPECT_EQ(simd_count_le(values.data(), values.size(),
                          std::numeric_limits<std::int64_t>::min()),
            0u);
  EXPECT_EQ(simd_count_le(values.data(), values.size(), 10), 6u);
}

TEST(CreditScanTest, CreditUpperBoundMatchesStdAcrossCutoff) {
  // Straddle kLinearCutoff so both the SIMD-linear and the branchless
  // halving implementations answer for the same distribution.
  std::mt19937_64 rng(45);
  for (std::size_t n = kLinearCutoff - 2; n <= kLinearCutoff + 2; ++n) {
    for (int trial = 0; trial < 100; ++trial) {
      const auto values = random_sorted(rng, n, -30, 30);
      std::uniform_int_distribution<std::int64_t> key_dist(-40, 40);
      const std::int64_t key = key_dist(rng);
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(values.begin(), values.end(), key) -
          values.begin());
      EXPECT_EQ(credit_upper_bound(values.data(), n, key), expected)
          << "n=" << n << " key=" << key;
    }
  }
}

TEST(CreditScanTest, AllEqualArray) {
  const std::vector<std::int64_t> values(40, 7);
  EXPECT_EQ(branchless_upper_bound(values.data(), values.size(),
                                   std::int64_t{7}),
            values.size());
  EXPECT_EQ(branchless_upper_bound(values.data(), values.size(),
                                   std::int64_t{6}),
            0u);
  EXPECT_EQ(credit_upper_bound(values.data(), values.size(), 7),
            values.size());
}

TEST(CreditScanTest, PrefetchIsSafeAnywhere) {
  // Prefetch must never fault, even on junk addresses (it is a hint).
  int local = 0;
  prefetch(&local);
  prefetch(nullptr);
}

}  // namespace
}  // namespace horse::sched::credit_scan
