#include "core/p2sm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace horse::core {
namespace {

/// Test fixture owning vCPU storage plus one source list A and one target
/// run queue B.
class P2smTest : public ::testing::Test {
 protected:
  sched::Vcpu& make_vcpu(sched::Credit credit) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->id = static_cast<sched::VcpuId>(storage_.size());
    vcpu->credit = credit;
    storage_.push_back(std::move(vcpu));
    return *storage_.back();
  }

  /// Append to A in sorted order (A is maintained sorted by its owner).
  void add_to_a(std::initializer_list<sched::Credit> credits) {
    for (const sched::Credit credit : credits) {
      sched::Vcpu& vcpu = make_vcpu(credit);
      auto it = a_.begin();
      while (it != a_.end() && it->credit <= vcpu.credit) {
        ++it;
      }
      a_.insert(it, vcpu);
    }
  }

  void add_to_b(std::initializer_list<sched::Credit> credits) {
    for (const sched::Credit credit : credits) {
      util::LockGuard guard(b_.lock());
      b_.insert_sorted(make_vcpu(credit));
    }
  }

  std::vector<sched::Credit> b_credits() {
    std::vector<sched::Credit> out;
    for (const sched::Vcpu& vcpu : b_.list()) {
      out.push_back(vcpu.credit);
    }
    return out;
  }

  void expect_merged(std::vector<sched::Credit> expected) {
    EXPECT_EQ(b_credits(), expected);
    EXPECT_TRUE(b_.is_sorted());
    EXPECT_EQ(a_.size(), 0u);
  }

  std::vector<std::unique_ptr<sched::Vcpu>> storage_;
  sched::VcpuList a_;
  sched::RunQueue b_{0};
  P2smIndex index_;
  SequentialMergeExecutor executor_;
};

TEST_F(P2smTest, RebuildPartitionsIntoRuns) {
  add_to_b({10, 20, 30});
  add_to_a({5, 15, 16, 35});
  index_.rebuild(a_, b_);
  ASSERT_EQ(index_.run_count(), 3u);
  const auto& runs = index_.runs();
  // 5 -> before head; 15,16 -> after B[0]=10; 35 -> after B[2]=30.
  ASSERT_TRUE(runs.contains(P2smIndex::kBeforeHead));
  EXPECT_EQ(runs.at(P2smIndex::kBeforeHead).count, 1u);
  ASSERT_TRUE(runs.contains(0));
  EXPECT_EQ(runs.at(0).count, 2u);
  ASSERT_TRUE(runs.contains(2));
  EXPECT_EQ(runs.at(2).count, 1u);
  EXPECT_EQ(index_.array_b_size(), 3u);
}

TEST_F(P2smTest, MergeInterleaved) {
  add_to_b({10, 20, 30});
  add_to_a({5, 15, 16, 35});
  index_.rebuild(a_, b_);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({5, 10, 15, 16, 20, 30, 35});
}

TEST_F(P2smTest, MergeAllBeforeB) {
  add_to_b({100, 200});
  add_to_a({1, 2, 3});
  index_.rebuild(a_, b_);
  EXPECT_EQ(index_.run_count(), 1u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({1, 2, 3, 100, 200});
}

TEST_F(P2smTest, MergeAllAfterB) {
  add_to_b({1, 2});
  add_to_a({10, 20});
  index_.rebuild(a_, b_);
  EXPECT_EQ(index_.run_count(), 1u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({1, 2, 10, 20});
}

TEST_F(P2smTest, MergeIntoEmptyB) {
  add_to_a({3, 1, 2});
  index_.rebuild(a_, b_);
  EXPECT_EQ(index_.run_count(), 1u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({1, 2, 3});
}

TEST_F(P2smTest, MergeSingleElement) {
  add_to_b({10, 30});
  add_to_a({20});
  index_.rebuild(a_, b_);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({10, 20, 30});
}

TEST_F(P2smTest, TiesGoAfterEqualBElements) {
  add_to_b({10, 20});
  add_to_a({10, 20});
  index_.rebuild(a_, b_);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  // Both sorted; the A copies land after the equal B originals (insert
  // semantics "<=" in both the index and insert_sorted).
  expect_merged({10, 10, 20, 20});
}

TEST_F(P2smTest, MergeEveryGapOfB) {
  add_to_b({10, 20, 30, 40});
  add_to_a({5, 15, 25, 35, 45});
  index_.rebuild(a_, b_);
  EXPECT_EQ(index_.run_count(), 5u);  // one run per gap incl. head/tail
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({5, 10, 15, 20, 25, 30, 35, 40, 45});
}

TEST_F(P2smTest, MergeEmptyAFails) {
  add_to_b({1});
  index_.rebuild(a_, b_);
  EXPECT_EQ(index_.merge(a_, b_, executor_).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(P2smTest, StaleIndexRefusesMerge) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  // Mutate B after the rebuild: the index must refuse.
  {
    util::LockGuard guard(b_.lock());
    b_.insert_sorted(make_vcpu(7));
  }
  EXPECT_FALSE(index_.fresh(b_));
  EXPECT_EQ(index_.merge(a_, b_, executor_).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(P2smTest, FreshAfterRebuild) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  EXPECT_TRUE(index_.fresh(b_));
  EXPECT_TRUE(index_.built());
  index_.invalidate();
  EXPECT_FALSE(index_.built());
  EXPECT_EQ(index_.run_count(), 0u);
}

TEST_F(P2smTest, MergeConsumesIndex) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  EXPECT_FALSE(index_.built());
  EXPECT_EQ(index_.stats().merges, 1u);
}

TEST_F(P2smTest, MergeBumpsBVersion) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  const auto version = b_.version();
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  EXPECT_GT(b_.version(), version);
}

TEST_F(P2smTest, InsertIntoAExtendsExistingRun) {
  add_to_b({10, 20});
  add_to_a({15});
  index_.rebuild(a_, b_);
  sched::Vcpu& extra = make_vcpu(16);
  ASSERT_TRUE(index_.insert_into_a(a_, extra, b_).is_ok());
  EXPECT_EQ(a_.size(), 2u);
  EXPECT_EQ(index_.runs().at(0).count, 2u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({10, 15, 16, 20});
}

TEST_F(P2smTest, InsertIntoACreatesNewRunInOrder) {
  add_to_b({10, 20});
  add_to_a({15});
  index_.rebuild(a_, b_);
  sched::Vcpu& before = make_vcpu(5);   // new run before head
  sched::Vcpu& after = make_vcpu(25);   // new run after B[1]
  ASSERT_TRUE(index_.insert_into_a(a_, before, b_).is_ok());
  ASSERT_TRUE(index_.insert_into_a(a_, after, b_).is_ok());
  EXPECT_EQ(index_.run_count(), 3u);
  // A itself must remain sorted: 5, 15, 25.
  std::vector<sched::Credit> a_credits;
  for (const sched::Vcpu& vcpu : a_) {
    a_credits.push_back(vcpu.credit);
  }
  EXPECT_EQ(a_credits, (std::vector<sched::Credit>{5, 15, 25}));
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({5, 10, 15, 20, 25});
}

TEST_F(P2smTest, InsertIntoAAtRunHead) {
  add_to_b({10, 20});
  add_to_a({16});
  index_.rebuild(a_, b_);
  sched::Vcpu& head = make_vcpu(12);  // same run (anchor 0), before 16
  ASSERT_TRUE(index_.insert_into_a(a_, head, b_).is_ok());
  EXPECT_EQ(index_.runs().at(0).head, &head.hook);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({10, 12, 16, 20});
}

TEST_F(P2smTest, InsertIntoAStaleIndexFails) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  {
    util::LockGuard guard(b_.lock());
    b_.insert_sorted(make_vcpu(1));
  }
  sched::Vcpu& vcpu = make_vcpu(2);
  EXPECT_EQ(index_.insert_into_a(a_, vcpu, b_).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(P2smTest, RemoveFromAMiddleOfRun) {
  add_to_b({10});
  add_to_a({11, 12, 13});
  index_.rebuild(a_, b_);
  sched::Vcpu* middle = nullptr;
  for (sched::Vcpu& vcpu : a_) {
    if (vcpu.credit == 12) {
      middle = &vcpu;
    }
  }
  ASSERT_NE(middle, nullptr);
  ASSERT_TRUE(index_.remove_from_a(a_, *middle).is_ok());
  EXPECT_EQ(a_.size(), 2u);
  EXPECT_EQ(index_.runs().at(0).count, 2u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({10, 11, 13});
}

TEST_F(P2smTest, RemoveFromAWholeRunErasesKey) {
  add_to_b({10, 20});
  add_to_a({15});
  index_.rebuild(a_, b_);
  sched::Vcpu& only = a_.front();
  ASSERT_TRUE(index_.remove_from_a(a_, only).is_ok());
  EXPECT_EQ(index_.run_count(), 0u);
  EXPECT_EQ(a_.size(), 0u);
}

TEST_F(P2smTest, RemoveHeadAndTailOfRun) {
  add_to_b({10});
  add_to_a({11, 12, 13});
  index_.rebuild(a_, b_);
  sched::Vcpu& head = a_.front();
  ASSERT_TRUE(index_.remove_from_a(a_, head).is_ok());
  EXPECT_EQ(index_.runs().at(0).count, 2u);
  sched::Vcpu& tail = a_.back();
  ASSERT_TRUE(index_.remove_from_a(a_, tail).is_ok());
  EXPECT_EQ(index_.runs().at(0).count, 1u);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  expect_merged({10, 12});
}

TEST_F(P2smTest, RemoveUnknownVcpuReportsNotFound) {
  add_to_b({10});
  add_to_a({15});
  index_.rebuild(a_, b_);
  sched::Vcpu stranger;
  EXPECT_EQ(index_.remove_from_a(a_, stranger).code(),
            util::StatusCode::kNotFound);
}

TEST_F(P2smTest, StatsAccumulate) {
  add_to_b({10});
  add_to_a({5});
  index_.rebuild(a_, b_);
  sched::Vcpu& vcpu = make_vcpu(6);
  ASSERT_TRUE(index_.insert_into_a(a_, vcpu, b_).is_ok());
  ASSERT_TRUE(index_.remove_from_a(a_, vcpu).is_ok());
  EXPECT_EQ(index_.stats().rebuilds, 1u);
  EXPECT_EQ(index_.stats().incremental_inserts, 1u);
  EXPECT_EQ(index_.stats().incremental_removes, 1u);
}

TEST_F(P2smTest, MemoryFootprintTracksStructures) {
  EXPECT_EQ(index_.memory_bytes(), 0u);
  add_to_b({1, 2, 3, 4, 5});
  add_to_a({10});
  index_.rebuild(a_, b_);
  const std::size_t bytes = index_.memory_bytes();
  EXPECT_GT(bytes, 0u);
  // The B-snapshot arena starts at 64 slots (1 KiB for 5 entries) plus
  // the one-run table and splice buffer — comfortably under 4 KiB.
  EXPECT_LT(bytes, 4096u);
}

TEST_F(P2smTest, RandomisedMergeMatchesStdMerge) {
  util::Xoshiro256 rng(77);
  for (int round = 0; round < 50; ++round) {
    sched::VcpuList a;
    sched::RunQueue b(0);
    std::vector<std::unique_ptr<sched::Vcpu>> local;
    std::vector<sched::Credit> expected;

    const auto b_size = rng.bounded(40);
    for (std::uint64_t i = 0; i < b_size; ++i) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = static_cast<sched::Credit>(rng.bounded(100));
      expected.push_back(vcpu->credit);
      util::LockGuard guard(b.lock());
      b.insert_sorted(*vcpu);
      local.push_back(std::move(vcpu));
    }
    const auto a_size = rng.bounded(40) + 1;
    std::vector<sched::Credit> a_credits;
    for (std::uint64_t i = 0; i < a_size; ++i) {
      a_credits.push_back(static_cast<sched::Credit>(rng.bounded(100)));
    }
    std::sort(a_credits.begin(), a_credits.end());
    for (const sched::Credit credit : a_credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      expected.push_back(credit);
      a.push_back(*vcpu);
      local.push_back(std::move(vcpu));
    }
    std::sort(expected.begin(), expected.end());

    P2smIndex index;
    SequentialMergeExecutor executor;
    index.rebuild(a, b);
    ASSERT_TRUE(index.merge(a, b, executor).is_ok()) << "round " << round;

    std::vector<sched::Credit> actual;
    for (const sched::Vcpu& vcpu : b.list()) {
      actual.push_back(vcpu.credit);
    }
    ASSERT_EQ(actual, expected) << "round " << round;
    ASSERT_EQ(b.size(), expected.size());
    b.list().clear();  // unlink before vcpu storage is freed
  }
}

TEST_F(P2smTest, MergeStalesCoResidentIndexWhichRebuilds) {
  // Two paused sandboxes indexed against the same queue: the first one's
  // merge advances the queue's version once per spliced vCPU, so the
  // second index reads stale and must be rebuilt before it may splice.
  add_to_b({10, 40});
  add_to_a({5, 20, 50});

  std::vector<std::unique_ptr<sched::Vcpu>> other_storage;
  sched::VcpuList other_a;
  for (const sched::Credit credit : {15, 45}) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->credit = credit;
    other_a.push_back(*vcpu);
    other_storage.push_back(std::move(vcpu));
  }
  P2smIndex other_index;
  other_index.rebuild(other_a, b_);
  index_.rebuild(a_, b_);

  const std::uint64_t before = b_.version();
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  EXPECT_EQ(b_.version(), before + 3);  // one per spliced vCPU
  ASSERT_FALSE(other_index.fresh(b_));
  EXPECT_FALSE(other_index.merge(other_a, b_, executor_).is_ok());
  other_index.rebuild(other_a, b_);
  EXPECT_TRUE(other_index.fresh(b_));
  EXPECT_TRUE(other_index.audit(other_a, b_).is_ok());

  ASSERT_TRUE(other_index.merge(other_a, b_, executor_).is_ok());
  EXPECT_EQ(b_credits(),
            (std::vector<sched::Credit>{5, 10, 15, 20, 40, 45, 50}));
  EXPECT_TRUE(b_.is_sorted());
  // other_storage dies with this scope while its vCPUs sit in the fixture
  // queue; unlink everything first.
  b_.list().clear();
}

}  // namespace
}  // namespace horse::core
