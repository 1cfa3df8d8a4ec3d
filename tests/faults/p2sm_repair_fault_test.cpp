// Fault site `p2sm.repair.corrupt_delta`: a corrupt journal entry read
// during delta repair must poison the index (the precomputed structures
// can no longer be trusted) and degrade the maintenance path to the full
// rebuild — never splice from a repaired-but-wrong index.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/p2sm.hpp"
#include "core/ull_manager.hpp"
#include "sched/run_queue.hpp"
#include "util/fault_injection.hpp"
#include "vmm/resume_engine.hpp"

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
  sched::CpuTopology topology(8);
  HorseConfig config;
  config.num_ull_runqueues = 1;
  UllRunQueueManager manager(topology, config);

  vmm::SandboxConfig sandbox_config;
  sandbox_config.name = "ull-fault";
  sandbox_config.num_vcpus = 2;
  sandbox_config.memory_mb = 1;
  sandbox_config.ull = true;
  vmm::Sandbox sandbox(1, sandbox_config);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());

  const sched::CpuId cpu = manager.assign(sandbox);
  ASSERT_TRUE(manager.track(sandbox).is_ok());
  const P2smIndex* index = manager.index_of(sandbox);
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->stats().rebuilds, 1u);

  // Foreign structural mutation on the tracked queue.
  sched::RunQueue& queue = topology.queue(cpu);
  sched::Vcpu& foreign = make_vcpu(7);
  {
    util::LockGuard guard(queue.lock());
    queue.insert_sorted(foreign);
  }

  // refresh() tries repair first; the injected corruption forces the
  // rebuild rung of the ladder. The caller still sees one refreshed
  // index — degradation is invisible upward, visible in the stats.
  {
    auto fault = ScopedFault::nth("p2sm.repair.corrupt_delta", 1);
    EXPECT_EQ(manager.refresh(), 1u);
  }
  EXPECT_TRUE(index->fresh(queue));
  EXPECT_FALSE(index->poisoned());
  EXPECT_EQ(index->stats().repair_fallbacks, 1u);
  EXPECT_EQ(index->stats().repairs, 0u);
  EXPECT_EQ(index->stats().rebuilds, 2u);

  // With no fault armed, the same staleness is handled by repair alone.
  {
    util::LockGuard guard(queue.lock());
    queue.remove(foreign);
  }
  EXPECT_EQ(manager.refresh(), 1u);
  EXPECT_EQ(index->stats().repairs, 1u);
  EXPECT_EQ(index->stats().rebuilds, 2u);

  manager.untrack(sandbox);
}

}  // namespace
}  // namespace horse::core
