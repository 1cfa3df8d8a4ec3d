// RunQueue::merge_sorted must be element-for-element equivalent to the
// per-vCPU insert_sorted loop it replaces on the fallback merge path —
// same final ordering (ties included, so identity matters, not just
// credits), same state/last_cpu side effects, same version advance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sched/run_queue.hpp"
#include "sched/vcpu.hpp"
#include "util/spinlock.hpp"

namespace horse::sched {
namespace {

class MergeSortedTest : public ::testing::Test {
 protected:
  Vcpu& make_vcpu(VcpuId id, Credit credit) {
    auto vcpu = std::make_unique<Vcpu>();
    vcpu->id = id;
    vcpu->credit = credit;
    storage_.push_back(std::move(vcpu));
    return *storage_.back();
  }

  static std::vector<std::pair<Credit, VcpuId>> contents(RunQueue& queue) {
    std::vector<std::pair<Credit, VcpuId>> out;
    for (const Vcpu& vcpu : queue.list()) {
      out.emplace_back(vcpu.credit, vcpu.id);
    }
    return out;
  }

  std::vector<std::unique_ptr<Vcpu>> storage_;
};

TEST_F(MergeSortedTest, EmptyIncomingIsANoOp) {
  RunQueue queue(0);
  VcpuList incoming;
  util::LockGuard guard(queue.lock());
  EXPECT_EQ(queue.merge_sorted(incoming), 0u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.version(), 0u);
}

TEST_F(MergeSortedTest, SetsSchedulingStateLikeInsertSorted) {
  RunQueue queue(5);
  VcpuList incoming;
  Vcpu& vcpu = make_vcpu(1, 100);
  vcpu.state = VcpuState::kPaused;
  incoming.push_back(vcpu);
  {
    util::LockGuard guard(queue.lock());
    EXPECT_EQ(queue.merge_sorted(incoming), 1u);
  }
  EXPECT_EQ(vcpu.state, VcpuState::kRunnable);
  EXPECT_EQ(vcpu.last_cpu, 5u);
  EXPECT_TRUE(incoming.empty());
  queue.list().abandon_all();
}

TEST_F(MergeSortedTest, EquivalentToInsertSortedAcrossRandomSeeds) {
  // Same queue contents, same incoming list, two ways: the single-pass
  // merge vs the legacy per-element loop. Ordering (with tie identity),
  // version delta and invariants must match on every seed — sorted,
  // unsorted and duplicate-heavy incoming lists alike.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Credit> credit_dist(-20, 20);
    std::uniform_int_distribution<std::size_t> count_dist(0, 12);
    const std::size_t queue_len = count_dist(rng);
    const std::size_t incoming_len = count_dist(rng);

    storage_.clear();
    RunQueue merged_queue(1);
    RunQueue legacy_queue(1);
    VcpuList merged_incoming;
    VcpuList legacy_incoming;

    VcpuId next_id = 1;
    for (std::size_t i = 0; i < queue_len; ++i) {
      const Credit credit = credit_dist(rng);
      const VcpuId id = next_id++;
      util::LockGuard merged_guard(merged_queue.lock());
      util::LockGuard legacy_guard(legacy_queue.lock());
      merged_queue.insert_sorted(make_vcpu(id, credit));
      legacy_queue.insert_sorted(make_vcpu(id, credit));
    }
    // Mostly-sorted incoming (the merge-list contract) with occasional
    // out-of-order elements to force the head-restart path.
    std::vector<Credit> credits;
    for (std::size_t i = 0; i < incoming_len; ++i) {
      credits.push_back(credit_dist(rng));
    }
    if (seed % 3 != 0) {
      std::sort(credits.begin(), credits.end());
    }
    for (std::size_t i = 0; i < incoming_len; ++i) {
      const VcpuId id = next_id++;
      merged_incoming.push_back(make_vcpu(id, credits[i]));
      legacy_incoming.push_back(make_vcpu(id, credits[i]));
    }

    const std::uint64_t version_before = merged_queue.version();
    {
      util::LockGuard guard(merged_queue.lock());
      EXPECT_EQ(merged_queue.merge_sorted(merged_incoming), incoming_len);
    }
    {
      util::LockGuard guard(legacy_queue.lock());
      while (!legacy_incoming.empty()) {
        legacy_queue.insert_sorted(legacy_incoming.pop_front());
      }
    }

    EXPECT_EQ(contents(merged_queue), contents(legacy_queue))
        << "seed " << seed;
    EXPECT_EQ(merged_queue.version(), legacy_queue.version())
        << "seed " << seed;
    EXPECT_EQ(merged_queue.version(), version_before + incoming_len);
    EXPECT_TRUE(merged_queue.check_invariants(/*require_sorted=*/true).is_ok())
        << "seed " << seed;

    merged_queue.list().abandon_all();
    legacy_queue.list().abandon_all();
  }
}

}  // namespace
}  // namespace horse::sched
