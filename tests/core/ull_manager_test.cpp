#include "core/ull_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/horse_resume.hpp"
#include "util/epoch.hpp"
#include "vmm/resume_engine.hpp"

namespace horse::core {
namespace {

class UllManagerTest : public ::testing::Test {
 protected:
  UllManagerTest() : topology_(8) {}

  HorseConfig config(std::uint32_t queues) {
    HorseConfig cfg;
    cfg.num_ull_runqueues = queues;
    return cfg;
  }

  std::unique_ptr<vmm::Sandbox> make_sandbox(std::uint32_t vcpus) {
    vmm::SandboxConfig cfg;
    cfg.name = "ull";
    cfg.num_vcpus = vcpus;
    cfg.memory_mb = 1;
    cfg.ull = true;
    return std::make_unique<vmm::Sandbox>(next_id_++, cfg);
  }

  std::unique_ptr<vmm::Sandbox> paused_sandbox(std::uint32_t vcpus) {
    auto sandbox = make_sandbox(vcpus);
    vmm::ResumeEngine engine(topology_, vmm::VmmProfile::firecracker());
    (void)engine.start(*sandbox);
    (void)engine.pause(*sandbox);
    return sandbox;
  }

  sched::CpuTopology topology_;
  sched::SandboxId next_id_ = 1;
};

TEST_F(UllManagerTest, ReservesHighestCpus) {
  UllRunQueueManager manager(topology_, config(2));
  EXPECT_EQ(manager.ull_cpus(), (std::vector<sched::CpuId>{7, 6}));
  EXPECT_TRUE(topology_.is_reserved(7));
  EXPECT_TRUE(topology_.is_reserved(6));
  EXPECT_FALSE(topology_.is_reserved(5));
}

TEST_F(UllManagerTest, RejectsReservingEveryCpu) {
  sched::CpuTopology tiny(2);
  EXPECT_THROW(UllRunQueueManager(tiny, config(2)), std::invalid_argument);
}

TEST_F(UllManagerTest, AssignBalancesByPausedCount) {
  UllRunQueueManager manager(topology_, config(2));
  auto s1 = paused_sandbox(1);
  auto s2 = paused_sandbox(1);
  auto s3 = paused_sandbox(1);
  const auto c1 = manager.assign(*s1);
  ASSERT_TRUE(manager.track(*s1).is_ok());
  const auto c2 = manager.assign(*s2);
  ASSERT_TRUE(manager.track(*s2).is_ok());
  EXPECT_NE(c1, c2);  // second sandbox goes to the other queue
  const auto c3 = manager.assign(*s3);
  ASSERT_TRUE(manager.track(*s3).is_ok());
  // Third joins whichever queue has one sandbox — both do, so any
  // reserved queue is fine; occupancy must stay balanced 2/1.
  EXPECT_TRUE(c3 == c1 || c3 == c2);
  EXPECT_EQ(manager.tracked_count(), 3u);
}

TEST_F(UllManagerTest, AssignmentLookup) {
  UllRunQueueManager manager(topology_, config(1));
  auto sandbox = paused_sandbox(2);
  EXPECT_FALSE(manager.assignment(*sandbox).has_value());
  const auto cpu = manager.assign(*sandbox);
  const auto looked_up = manager.assignment(*sandbox);
  ASSERT_TRUE(looked_up.has_value());
  EXPECT_EQ(*looked_up, cpu);
}

TEST_F(UllManagerTest, TrackRequiresAssignment) {
  UllRunQueueManager manager(topology_, config(1));
  auto sandbox = paused_sandbox(1);
  EXPECT_EQ(manager.track(*sandbox).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(UllManagerTest, TrackRequiresParkedVcpus) {
  UllRunQueueManager manager(topology_, config(1));
  vmm::SandboxConfig cfg;
  cfg.num_vcpus = 1;
  cfg.ull = true;
  vmm::Sandbox sandbox(99, cfg);  // never started/paused
  (void)manager.assign(sandbox);
  EXPECT_EQ(manager.track(sandbox).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(UllManagerTest, TrackBuildsFreshIndex) {
  UllRunQueueManager manager(topology_, config(1));
  auto sandbox = paused_sandbox(4);
  (void)manager.assign(*sandbox);
  ASSERT_TRUE(manager.track(*sandbox).is_ok());
  P2smIndex* index = manager.index_of(*sandbox);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->fresh(topology_.queue(7)));
}

TEST_F(UllManagerTest, RefreshRebuildsStaleIndexes) {
  // Nothing freshens a paused sandbox's index behind its back: the resume
  // that consumes it does, in step ④, and still splices on the fast path.
  UllRunQueueManager manager(topology_, config(1));
  HorseResumeEngine engine(topology_, vmm::VmmProfile::firecracker(), manager,
                           7);
  auto sandbox = make_sandbox(2);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  const P2smIndex* index = manager.index_of(*sandbox);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->fresh(topology_.queue(7)));  // fresh right after track

  // A foreign mutation of the ull queue leaves the index stale.
  sched::Vcpu intruder;
  intruder.credit = 5;
  {
    util::LockGuard guard(topology_.queue(7).lock());
    topology_.queue(7).insert_sorted(intruder);
  }
  EXPECT_FALSE(index->fresh(topology_.queue(7)));
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  const ResumeDegradationStats stats = engine.degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_EQ(stats.in_place_rebuilds, 1u);
  EXPECT_EQ(topology_.queue(7).size(), 3u);
  EXPECT_TRUE(topology_.queue(7).is_sorted());
  {
    util::LockGuard guard(topology_.queue(7).lock());
    topology_.queue(7).remove(intruder);
  }
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST_F(UllManagerTest, UntrackDropsState) {
  UllRunQueueManager manager(topology_, config(1));
  auto sandbox = paused_sandbox(1);
  (void)manager.assign(*sandbox);
  ASSERT_TRUE(manager.track(*sandbox).is_ok());
  manager.untrack(*sandbox);
  EXPECT_EQ(manager.tracked_count(), 0u);
  EXPECT_EQ(manager.index_of(*sandbox), nullptr);
  EXPECT_FALSE(manager.assignment(*sandbox).has_value());
}

TEST_F(UllManagerTest, LookupPinProtectsIndexAcrossUntrackAndReclaim) {
  // The resume path pins the assigned queue's epoch in lookup(). A node
  // is retired only when its sandbox is destroyed (release()), and a
  // reader pinned before that retirement must keep it alive across any
  // number of maintenance reclaim pumps.
  UllRunQueueManager manager(topology_, config(1));
  auto sandbox = paused_sandbox(2);
  (void)manager.assign(*sandbox);
  ASSERT_TRUE(manager.track(*sandbox).is_ok());

  util::EpochReclaimer& epoch = topology_.queue(7).epoch();
  std::optional<util::EpochReclaimer::ReadGuard> pin;
  const auto looked = manager.lookup(*sandbox, &pin);
  ASSERT_TRUE(looked.has_value());
  ASSERT_NE((*looked).index, nullptr);
  ASSERT_TRUE(pin.has_value());

  // Rogue destroy racing the resume: the node is retired, but no number
  // of reclaim attempts may free it while the lookup's pin is live.
  manager.release(*sandbox);
  EXPECT_EQ(epoch.pending(), 1u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(epoch.try_reclaim(), 0u);
  }
  // Still dereferenceable — the ASan preset turns a stale free here into
  // a hard use-after-free failure.
  EXPECT_TRUE((*looked).index->built());

  pin.reset();
  std::size_t freed = 0;
  for (int i = 0; i < 3 && freed == 0; ++i) {
    freed = epoch.try_reclaim();
  }
  EXPECT_EQ(freed, 1u);
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST_F(UllManagerTest, MemoryAccountingGrowsWithSandboxes) {
  UllRunQueueManager manager(topology_, config(1));
  EXPECT_EQ(manager.total_index_bytes(), 0u);
  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  std::size_t previous = 0;
  for (int i = 0; i < 10; ++i) {
    auto sandbox = paused_sandbox(4);
    (void)manager.assign(*sandbox);
    ASSERT_TRUE(manager.track(*sandbox).is_ok());
    sandboxes.push_back(std::move(sandbox));
    const std::size_t bytes = manager.total_index_bytes();
    EXPECT_GT(bytes, previous);
    previous = bytes;
  }
  // §5.2 band: 10 paused uLL sandboxes cost ~528 KB in the kernel
  // implementation; our user-space structures must stay the same order of
  // magnitude (well under 1 MB).
  EXPECT_LT(previous, 1024u * 1024u);
}

}  // namespace
}  // namespace horse::core
