#include "sched/run_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace horse::sched {
namespace {

std::vector<Credit> credits_of(RunQueue& queue) {
  std::vector<Credit> out;
  for (const Vcpu& vcpu : queue.list()) {
    out.push_back(vcpu.credit);
  }
  return out;
}

TEST(RunQueueTest, StartsEmptyAndSorted) {
  RunQueue queue(0);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.is_sorted());
  EXPECT_EQ(queue.pop_front(), nullptr);
  EXPECT_EQ(queue.peek_front(), nullptr);
}

TEST(RunQueueTest, InsertSortedKeepsAscendingCredit) {
  RunQueue queue(0);
  Vcpu a, b, c;
  a.credit = 30;
  b.credit = 10;
  c.credit = 20;
  queue.insert_sorted(a);
  queue.insert_sorted(b);
  queue.insert_sorted(c);
  EXPECT_EQ(credits_of(queue), (std::vector<Credit>{10, 20, 30}));
  EXPECT_TRUE(queue.is_sorted());
}

TEST(RunQueueTest, InsertSortedEqualCreditsGoAfterExisting) {
  RunQueue queue(0);
  Vcpu first, second;
  first.credit = 10;
  first.id = 1;
  second.credit = 10;
  second.id = 2;
  queue.insert_sorted(first);
  queue.insert_sorted(second);
  // FIFO among equals: the earlier insert stays in front.
  EXPECT_EQ(queue.peek_front()->id, 1u);
}

TEST(RunQueueTest, InsertSetsRunnableStateAndCpu) {
  RunQueue queue(3);
  Vcpu vcpu;
  queue.insert_sorted(vcpu);
  EXPECT_EQ(vcpu.state, VcpuState::kRunnable);
  EXPECT_EQ(vcpu.last_cpu, 3u);
}

TEST(RunQueueTest, PopFrontReturnsLowestCredit) {
  RunQueue queue(0);
  Vcpu a, b;
  a.credit = 5;
  b.credit = 1;
  queue.insert_sorted(a);
  queue.insert_sorted(b);
  EXPECT_EQ(queue.pop_front(), &b);
  EXPECT_EQ(queue.pop_front(), &a);
  EXPECT_EQ(queue.pop_front(), nullptr);
}

TEST(RunQueueTest, RemoveSpecificVcpu) {
  RunQueue queue(0);
  Vcpu a, b, c;
  a.credit = 1;
  b.credit = 2;
  c.credit = 3;
  queue.insert_sorted(a);
  queue.insert_sorted(b);
  queue.insert_sorted(c);
  queue.remove(b);
  EXPECT_EQ(credits_of(queue), (std::vector<Credit>{1, 3}));
}

TEST(RunQueueTest, VersionBumpsOnEveryMutation) {
  RunQueue queue(0);
  Vcpu a;
  const auto v0 = queue.version();
  queue.insert_sorted(a);
  const auto v1 = queue.version();
  EXPECT_GT(v1, v0);
  queue.remove(a);
  EXPECT_GT(queue.version(), v1);
  // A change made outside the mutators (a 𝒫²𝒮ℳ splice of n vCPUs)
  // advances the version by its count.
  const auto v2 = queue.version();
  queue.bump_version(3);
  EXPECT_EQ(queue.version(), v2 + 3);
}

TEST(RunQueueTest, LoadUpdateEnqueueAppliesAffineMap) {
  RunQueue queue(0);
  const auto& params = queue.pelt().params();
  queue.set_load_for_test(100.0);
  const double updated = queue.update_load_enqueue();
  EXPECT_DOUBLE_EQ(updated, params.alpha * 100.0 + params.beta);
  EXPECT_DOUBLE_EQ(queue.load(), updated);
}

TEST(RunQueueTest, CoalescedMatchesIterative) {
  RunQueue iterative(0);
  RunQueue coalesced(1);
  iterative.set_load_for_test(50.0);
  coalesced.set_load_for_test(50.0);
  for (int i = 0; i < 16; ++i) {
    iterative.update_load_enqueue();
  }
  coalesced.update_load_coalesced(16);
  EXPECT_NEAR(iterative.load(), coalesced.load(), 1e-9);
}

TEST(RunQueueTest, ApplyPrecomputedLoadMatchesClosedForm) {
  RunQueue queue(0);
  queue.set_load_for_test(10.0);
  const auto& params = queue.pelt().params();
  const double alpha_n = params.alpha * params.alpha;  // n = 2
  const double beta_geo = params.beta * (1.0 + params.alpha);
  const double result = queue.apply_precomputed_load(alpha_n, beta_geo);
  EXPECT_NEAR(result, queue.pelt().apply_iterative(10.0, 2), 1e-9);
}

TEST(RunQueueTest, DecayReducesLoad) {
  RunQueue queue(0);
  queue.set_load_for_test(1000.0);
  queue.decay_load(32);
  // PELT halves every 32 periods.
  EXPECT_NEAR(queue.load(), 500.0, 0.5);
}

TEST(RunQueueTest, RandomInsertionsStaySorted) {
  // Storage before the queue: ~RunQueue unlinks every node still
  // enqueued, so the nodes must outlive it.
  std::vector<std::unique_ptr<Vcpu>> storage;
  RunQueue queue(0);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    auto vcpu = std::make_unique<Vcpu>();
    vcpu->credit = static_cast<Credit>(rng.bounded(1000));
    queue.insert_sorted(*vcpu);
    storage.push_back(std::move(vcpu));
  }
  EXPECT_TRUE(queue.is_sorted());
  EXPECT_EQ(queue.size(), 200u);
}

}  // namespace
}  // namespace horse::sched
