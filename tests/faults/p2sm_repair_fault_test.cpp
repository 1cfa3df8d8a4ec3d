// Fault site `p2sm.repair.corrupt_delta`: a corrupt journal entry read
// during delta repair must poison the index (the precomputed structures
// can no longer be trusted) and degrade step ④'s in-place freshening to
// the full rebuild — never splice from a repaired-but-wrong index.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/horse_resume.hpp"
#include "core/p2sm.hpp"
#include "sched/run_queue.hpp"
#include "util/fault_injection.hpp"

namespace horse::core {
namespace {

using util::FaultInjector;
using util::ScopedFault;

class P2smRepairFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }

  sched::Vcpu& make_vcpu(sched::Credit credit) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->id = static_cast<sched::VcpuId>(storage_.size());
    vcpu->credit = credit;
    storage_.push_back(std::move(vcpu));
    return *storage_.back();
  }

  std::vector<std::unique_ptr<sched::Vcpu>> storage_;
};

TEST_F(P2smRepairFaultTest, CorruptDeltaPoisonsIndexAndRebuildCures) {
  sched::RunQueue b(0);
  b.insert_sorted(make_vcpu(10));
  b.insert_sorted(make_vcpu(30));
  sched::VcpuList a;
  a.push_back(make_vcpu(20));

  P2smIndex index;
  index.rebuild(a, b);
  b.insert_sorted(make_vcpu(40));  // make the index stale
  ASSERT_FALSE(index.fresh(b));

  {
    auto fault = ScopedFault::nth("p2sm.repair.corrupt_delta", 1);
    const util::Status status = index.repair(a, b);
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  }
  // The bad entry did not just fail the repair — it marked the whole
  // index untrustworthy.
  EXPECT_TRUE(index.poisoned());
  EXPECT_EQ(index.stats().repair_fallbacks, 1u);
  EXPECT_EQ(index.stats().repairs, 0u);

  // A poisoned index refuses further repairs even with no fault armed.
  EXPECT_FALSE(index.repair(a, b).is_ok());
  EXPECT_EQ(index.stats().repair_fallbacks, 2u);

  // The documented degradation: rebuild cures poisoning and freshness.
  index.rebuild(a, b);
  EXPECT_FALSE(index.poisoned());
  EXPECT_TRUE(index.fresh(b));
  EXPECT_TRUE(index.audit(a, b).is_ok());

  SequentialMergeExecutor executor;
  ASSERT_TRUE(index.merge(a, b, executor).is_ok());
  EXPECT_TRUE(b.is_sorted());
  EXPECT_EQ(b.size(), 4u);
}

TEST_F(P2smRepairFaultTest, ManagerRefreshDegradesToRebuildOnCorruptDelta) {
  // Step ④ freshens a stale index in place: journal repair first, the
  // rebuild rung when the repair is refused.
  sched::CpuTopology topology(8);
  HorseConfig config;
  config.num_ull_runqueues = 1;
  HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(), config);

  vmm::SandboxConfig sandbox_config;
  sandbox_config.name = "ull-fault";
  sandbox_config.num_vcpus = 2;
  sandbox_config.memory_mb = 1;
  sandbox_config.ull = true;
  vmm::Sandbox sandbox(1, sandbox_config);
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());

  const auto cpu = engine.ull_manager().assignment(sandbox);
  ASSERT_TRUE(cpu.has_value());
  // The node, and so the index, lives until the sandbox is destroyed.
  const P2smIndex* index = engine.ull_manager().index_of(sandbox);
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->stats().rebuilds, 1u);

  // Foreign structural mutation on the tracked queue.
  sched::RunQueue& queue = topology.queue(*cpu);
  sched::Vcpu& foreign = make_vcpu(7);
  {
    util::LockGuard guard(queue.lock());
    queue.insert_sorted(foreign);
  }

  // The injected corruption forces the rebuild rung of the ladder. The
  // resume still splices on the fast path — degradation is invisible
  // upward, visible in the stats.
  {
    auto fault = ScopedFault::nth("p2sm.repair.corrupt_delta", 1);
    ASSERT_TRUE(engine.resume(sandbox).is_ok());
  }
  EXPECT_FALSE(index->poisoned());
  EXPECT_EQ(index->stats().repair_fallbacks, 1u);
  EXPECT_EQ(index->stats().repairs, 0u);
  EXPECT_EQ(index->stats().rebuilds, 2u);
  ResumeDegradationStats stats = engine.degradation_stats();
  EXPECT_EQ(stats.in_place_rebuilds, 1u);
  EXPECT_EQ(stats.in_place_repairs, 0u);
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_TRUE(queue.is_sorted());

  // With no fault armed, the same staleness is handled by repair alone.
  // The re-pause rebuilds the index (its third build).
  ASSERT_TRUE(engine.pause(sandbox).is_ok());
  {
    util::LockGuard guard(queue.lock());
    queue.remove(foreign);
  }
  ASSERT_TRUE(engine.resume(sandbox).is_ok());
  EXPECT_EQ(index->stats().repairs, 1u);
  EXPECT_EQ(index->stats().rebuilds, 3u);
  stats = engine.degradation_stats();
  EXPECT_EQ(stats.in_place_repairs, 1u);
  EXPECT_EQ(stats.in_place_rebuilds, 1u);
  EXPECT_EQ(stats.fallback_merges, 0u);

  ASSERT_TRUE(engine.destroy(sandbox).is_ok());
}

}  // namespace
}  // namespace horse::core
