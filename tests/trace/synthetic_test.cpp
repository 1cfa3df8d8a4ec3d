#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace horse::trace {
namespace {

TEST(SyntheticTraceTest, ValidatesParams) {
  SyntheticTraceParams params;
  params.num_functions = 0;
  EXPECT_THROW(SyntheticAzureTrace{params}, std::invalid_argument);
  params = {};
  params.top_rate_per_minute = 0.0;
  EXPECT_THROW(SyntheticAzureTrace{params}, std::invalid_argument);
}

TEST(SyntheticTraceTest, GeneratesRequestedShape) {
  SyntheticTraceParams params;
  params.num_functions = 10;
  params.num_minutes = 5;
  SyntheticAzureTrace generator(params);
  const auto rows = generator.generate_rows();
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.per_minute.size(), 5u);
    EXPECT_FALSE(row.function.empty());
  }
}

TEST(SyntheticTraceTest, DeterministicPerSeed) {
  SyntheticTraceParams params;
  params.seed = 123;
  const auto a = SyntheticAzureTrace(params).generate_rows();
  const auto b = SyntheticAzureTrace(params).generate_rows();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].per_minute, b[i].per_minute);
  }
}

TEST(SyntheticTraceTest, PopularityIsHeavyTailed) {
  SyntheticTraceParams params;
  params.num_functions = 50;
  params.num_minutes = 20;
  const auto rows = SyntheticAzureTrace(params).generate_rows();
  auto total = [](const FunctionRow& row) {
    return std::accumulate(row.per_minute.begin(), row.per_minute.end(), 0u);
  };
  // Rank-0 function must dominate rank-25 by a wide margin (Zipf s=1.1).
  EXPECT_GT(total(rows[0]), 10 * std::max(1u, total(rows[25])));
}

TEST(SyntheticTraceTest, ScheduleMatchesRowTotals) {
  SyntheticTraceParams params;
  params.num_functions = 5;
  params.num_minutes = 3;
  SyntheticAzureTrace generator(params);
  const auto rows = generator.generate_rows();
  std::size_t expected = 0;
  for (const auto& row : rows) {
    expected += std::accumulate(row.per_minute.begin(), row.per_minute.end(), 0u);
  }
  EXPECT_EQ(generator.generate_schedule().size(), expected);
}

TEST(SyntheticTraceTest, HighRatePoissonNeitherUnderflowsNorCaps) {
  // Above ~745/minute exp(-rate) underflows to 0, so a single inversion
  // would run to its 100000 cap; high rates are summed over chunks.
  SyntheticTraceParams params;
  params.num_functions = 1;
  params.num_minutes = 400;
  params.top_rate_per_minute = 2000.0;
  params.rate_jitter = 0.0;
  const auto rows = SyntheticAzureTrace(params).generate_rows();
  double sum = 0.0;
  for (const std::uint32_t count : rows[0].per_minute) {
    EXPECT_LT(count, 100000u);
    sum += count;
  }
  // The mean of 400 Poisson(2000) minutes has sigma sqrt(2000 / 400).
  const double mean = sum / params.num_minutes;
  EXPECT_NEAR(mean, 2000.0, 3.0 * std::sqrt(2000.0 / params.num_minutes));
}

TEST(SyntheticTraceTest, RatesUpToSevenHundredKeepTheirSchedule) {
  // Every rate here is at most 500 x 1.35 = 675 per minute, so each draw
  // stays on the single inversion and the rows are bit-identical to what
  // the generator has always produced for this seed.
  SyntheticTraceParams params;
  params.num_functions = 64;
  params.num_minutes = 12;
  params.top_rate_per_minute = 500.0;
  params.seed = 7;
  const auto rows = SyntheticAzureTrace(params).generate_rows();
  EXPECT_EQ(rows[0].per_minute,
            (std::vector<std::uint32_t>{556, 671, 701, 323, 444, 528, 684,
                                        486, 413, 358, 392, 545}));
  EXPECT_EQ(rows[1].per_minute,
            (std::vector<std::uint32_t>{255, 161, 179, 152, 323, 298, 216,
                                        339, 283, 228, 234, 288}));
  EXPECT_EQ(rows[63].per_minute,
            (std::vector<std::uint32_t>{3, 5, 7, 5, 6, 2, 6, 2, 4, 3, 5, 1}));
  std::uint64_t total = 0;
  for (const auto& row : rows) {
    total += std::accumulate(row.per_minute.begin(), row.per_minute.end(),
                             std::uint64_t{0});
  }
  EXPECT_EQ(total, 24306u);
}

TEST(DurationSamplerTest, SamplesArePositive) {
  DurationSampler sampler({});
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GT(sampler.sample(), 0);
  }
}

TEST(DurationSamplerTest, BodyCentersOnMedian) {
  DurationSampler::Params params;
  params.tail_fraction = 0.0;  // body only
  DurationSampler sampler(params, 5);
  int below = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    if (sampler.sample() < params.median) {
      ++below;
    }
  }
  // Median property: about half the mass below.
  EXPECT_NEAR(static_cast<double>(below) / kSamples, 0.5, 0.02);
}

TEST(DurationSamplerTest, TailFractionExceedsOneSecond) {
  DurationSampler sampler({}, 11);
  int over_1s = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    if (sampler.sample() >= util::kSecond) {
      ++over_1s;
    }
  }
  // "a non-negligible fraction of serverless functions has an execution
  // time longer than 1s": tail_fraction = 5% plus lognormal spill.
  const double fraction = static_cast<double>(over_1s) / kSamples;
  EXPECT_GT(fraction, 0.03);
  EXPECT_LT(fraction, 0.20);
}

TEST(DurationSamplerTest, TailStaysBounded) {
  DurationSampler::Params params;
  params.tail_fraction = 1.0;  // tail only
  DurationSampler sampler(params, 13);
  for (int i = 0; i < 5'000; ++i) {
    const auto v = sampler.sample();
    EXPECT_GE(v, params.tail_min * 99 / 100);
    EXPECT_LE(v, params.tail_max * 101 / 100);
  }
}

}  // namespace
}  // namespace horse::trace
