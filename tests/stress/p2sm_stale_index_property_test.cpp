// Property test for a stale 𝒫²𝒮ℳ index: 1024 seeds of random queue
// mutations (sorted inserts, targeted removes, head pops) under a built
// index, the way a paused sandbox's index goes stale while other sandboxes
// resume and pause on its reserved queue.
//
// Per seed:
//   * every mutation must make the index stale (the version advances), and
//     a stale index must refuse to merge;
//   * every k-th mutation the index is rebuilt, must pass the full
//     structural audit, and its run table must equal an oracle computed by
//     brute force from the live A and B — each A node's anchor is
//     std::upper_bound over B's credits, minus one;
//   * the scenario ends with a real merge, checked against std::sort and
//     the queue's structural invariants.
// Both rebuild cadences run per seed from the same mutation sequence:
// stepwise (k = 1) and batched (k random per seed), because a batched
// rebuild sees several mutations' worth of shifted anchors at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/p2sm.hpp"
#include "sched/run_queue.hpp"
#include "util/rng.hpp"

namespace horse::core {
namespace {

enum class Cadence { kStepwise, kBatched };

struct OracleRun {
  P2smIndex::AnchorIndex anchor;
  const util::ListHook* head;
  const util::ListHook* tail;
  std::size_t count;
};

/// The run table a correct index must hold for the live A and B.
std::vector<OracleRun> oracle_runs(sched::VcpuList& a, sched::RunQueue& b) {
  std::vector<sched::Credit> b_credits;
  for (const sched::Vcpu& vcpu : b.list()) {
    b_credits.push_back(vcpu.credit);
  }
  std::vector<OracleRun> runs;
  for (sched::Vcpu& vcpu : a) {
    const auto anchor = static_cast<P2smIndex::AnchorIndex>(
                            std::upper_bound(b_credits.begin(), b_credits.end(),
                                             vcpu.credit) -
                            b_credits.begin()) -
                        1;
    if (runs.empty() || runs.back().anchor != anchor) {
      runs.push_back({anchor, &vcpu.hook, &vcpu.hook, 1});
    } else {
      runs.back().tail = &vcpu.hook;
      ++runs.back().count;
    }
  }
  return runs;
}

void expect_matches_oracle(P2smIndex& subject, sched::VcpuList& a,
                           sched::RunQueue& b, std::uint64_t seed, int step) {
  ASSERT_TRUE(subject.fresh(b)) << "seed " << seed << " step " << step;
  ASSERT_TRUE(subject.audit(a, b).is_ok())
      << "seed " << seed << " step " << step;
  ASSERT_EQ(subject.array_b_size(), b.size())
      << "seed " << seed << " step " << step;
  const std::vector<OracleRun> expected = oracle_runs(a, b);
  const auto runs = subject.runs();
  ASSERT_EQ(runs.size(), expected.size())
      << "seed " << seed << " step " << step;
  auto it = runs.begin();
  for (const OracleRun& want : expected) {
    ASSERT_EQ(it->anchor, want.anchor) << "seed " << seed << " step " << step;
    ASSERT_EQ(it->run.head, want.head) << "seed " << seed << " step " << step;
    ASSERT_EQ(it->run.tail, want.tail) << "seed " << seed << " step " << step;
    ASSERT_EQ(it->run.count, want.count)
        << "seed " << seed << " step " << step;
    ++it;
  }
}

void run_scenario(std::uint64_t seed, Cadence cadence) {
  util::Xoshiro256 rng(seed);
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  auto make_vcpu = [&storage](sched::Credit credit) -> sched::Vcpu& {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->id = static_cast<sched::VcpuId>(storage.size());
    vcpu->credit = credit;
    storage.push_back(std::move(vcpu));
    return *storage.back();
  };

  sched::RunQueue b(0);
  std::vector<sched::Vcpu*> b_members;  // shadow set for targeted removes
  const std::size_t b_initial = rng.bounded(24);
  for (std::size_t i = 0; i < b_initial; ++i) {
    sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
    b.insert_sorted(vcpu);
    b_members.push_back(&vcpu);
  }

  sched::VcpuList a;
  const std::size_t a_size = 1 + rng.bounded(10);
  for (std::size_t i = 0; i < a_size; ++i) {
    sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
    auto it = a.begin();
    while (it != a.end() && it->credit <= vcpu.credit) {
      ++it;
    }
    a.insert(it, vcpu);
  }

  P2smIndex subject;
  subject.rebuild(a, b);
  expect_matches_oracle(subject, a, b, seed, -1);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  const std::size_t batch =
      cadence == Cadence::kStepwise ? 1 : 1 + rng.bounded(8);
  SequentialMergeExecutor executor;
  constexpr int kSteps = 20;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.bounded(3);
    if (op == 0 || b_members.empty()) {
      sched::Vcpu& vcpu =
          make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
      b.insert_sorted(vcpu);
      b_members.push_back(&vcpu);
    } else if (op == 1) {
      const std::size_t victim = rng.bounded(b_members.size());
      b.remove(*b_members[victim]);
      b_members.erase(b_members.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      sched::Vcpu* popped = b.pop_front();
      ASSERT_NE(popped, nullptr);
      b_members.erase(std::find(b_members.begin(), b_members.end(), popped));
    }
    ASSERT_FALSE(subject.fresh(b)) << "seed " << seed << " step " << step;
    ASSERT_EQ(subject.merge(a, b, executor).code(),
              util::StatusCode::kFailedPrecondition)
        << "seed " << seed << " step " << step;
    if ((static_cast<std::size_t>(step) + 1) % batch != 0) {
      continue;
    }
    subject.rebuild(a, b);
    expect_matches_oracle(subject, a, b, seed, step);
    if (::testing::Test::HasFatalFailure()) {
      return;  // ASSERTs in the helper only abort the helper itself
    }
  }
  if (!subject.fresh(b)) {
    subject.rebuild(a, b);
    expect_matches_oracle(subject, a, b, seed, kSteps);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }

  // The rebuilt index must still drive a correct O(1) splice.
  std::vector<sched::Credit> expected;
  for (const sched::Vcpu& vcpu : a) {
    expected.push_back(vcpu.credit);
  }
  for (const sched::Vcpu& vcpu : b.list()) {
    expected.push_back(vcpu.credit);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(subject.merge(a, b, executor).is_ok()) << "seed " << seed;
  std::vector<sched::Credit> actual;
  for (const sched::Vcpu& vcpu : b.list()) {
    actual.push_back(vcpu.credit);
  }
  ASSERT_EQ(actual, expected) << "seed " << seed;
  ASSERT_TRUE(b.check_invariants().is_ok()) << "seed " << seed;
  b.list().clear();  // unlink before vcpu storage is freed
}

void run_sweep(Cadence cadence) {
  for (std::uint64_t seed = 1; seed <= 1024; ++seed) {
    run_scenario(seed, cadence);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(P2smStaleIndexPropertyTest, StepwiseRebuildMatchesOracle1024Seeds) {
  run_sweep(Cadence::kStepwise);
}

TEST(P2smStaleIndexPropertyTest, BatchedRebuildMatchesOracle1024Seeds) {
  run_sweep(Cadence::kBatched);
}

}  // namespace
}  // namespace horse::core
