// vCPU hot(un)plug of paused sandboxes — the lifecycle event that forces
// HORSE's pause-time precomputations (coalescing factors, 𝒫²𝒮ℳ index) to
// be repaired incrementally.
#include <gtest/gtest.h>

#include <memory>

#include "core/horse_resume.hpp"
#include "vmm/resume_engine.hpp"

namespace horse {
namespace {

std::unique_ptr<vmm::Sandbox> make_sandbox(sched::SandboxId id,
                                           std::uint32_t vcpus, bool ull) {
  vmm::SandboxConfig config;
  config.name = "hp";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = ull;
  return std::make_unique<vmm::Sandbox>(id, config);
}

TEST(HotplugTest, SandboxAddVcpuRequiresPaused) {
  auto sandbox = make_sandbox(1, 1, false);
  EXPECT_FALSE(sandbox->add_vcpu().has_value());
  sandbox->set_state(vmm::SandboxState::kPaused);
  const auto vcpu = sandbox->add_vcpu();
  ASSERT_TRUE(vcpu.has_value());
  EXPECT_EQ((*vcpu)->id, 1u);
  EXPECT_EQ(sandbox->num_vcpus(), 2u);
  EXPECT_EQ(sandbox->config().num_vcpus, 2u);
}

TEST(HotplugTest, SandboxRemoveLastGuards) {
  auto sandbox = make_sandbox(1, 2, false);
  EXPECT_FALSE(sandbox->remove_last_vcpu().is_ok());  // not paused
  sandbox->set_state(vmm::SandboxState::kPaused);
  ASSERT_TRUE(sandbox->remove_last_vcpu().is_ok());
  EXPECT_EQ(sandbox->num_vcpus(), 1u);
  EXPECT_FALSE(sandbox->remove_last_vcpu().is_ok());  // last vCPU
}

TEST(HotplugTest, VanillaEngineHotplugJoinsMergeList) {
  sched::CpuTopology topology(4);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 2, false);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());

  ASSERT_TRUE(engine.hotplug_vcpu(*sandbox).is_ok());
  EXPECT_EQ(sandbox->num_vcpus(), 3u);
  EXPECT_EQ(sandbox->merge_vcpus().size(), 3u);

  // The resumed sandbox schedules all three vCPUs.
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  std::size_t queued = 0;
  for (sched::CpuId cpu = 0; cpu < topology.num_cpus(); ++cpu) {
    queued += topology.queue(cpu).size();
  }
  EXPECT_EQ(queued, 3u);
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, VanillaEngineUnplugShrinks) {
  sched::CpuTopology topology(4);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 3, false);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  ASSERT_TRUE(engine.unplug_vcpu(*sandbox).is_ok());
  EXPECT_EQ(sandbox->num_vcpus(), 2u);
  EXPECT_EQ(sandbox->merge_vcpus().size(), 2u);
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, HotplugRequiresPausedThroughEngine) {
  sched::CpuTopology topology(4);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 1, false);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  EXPECT_FALSE(engine.hotplug_vcpu(*sandbox).is_ok());
  EXPECT_FALSE(engine.unplug_vcpu(*sandbox).is_ok());
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, HorseHotplugRepairsFastPathState) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 2, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());

  const auto pre_before = sandbox->coalesce();
  ASSERT_TRUE(engine.hotplug_vcpu(*sandbox).is_ok());
  EXPECT_EQ(sandbox->num_vcpus(), 3u);

  // Coalescing factors recomputed for n=3.
  const auto& pre_after = sandbox->coalesce();
  EXPECT_TRUE(pre_after.valid);
  EXPECT_LT(pre_after.alpha_n, pre_before.alpha_n);  // alpha^3 < alpha^2

  // Index extended incrementally, not rebuilt from scratch.
  core::P2smIndex* index = engine.ull_manager().index_of(*sandbox);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->stats().incremental_inserts, 1u);

  // Resume is still the O(1) fast path and lands 3 vCPUs on the queue.
  vmm::ResumeBreakdown breakdown;
  ASSERT_TRUE(engine.resume(*sandbox, &breakdown).is_ok());
  EXPECT_EQ(topology.queue(3).size(), 3u);
  EXPECT_TRUE(topology.queue(3).is_sorted());
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, HorseUnplugUsesIncrementalRemove) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 4, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());

  ASSERT_TRUE(engine.unplug_vcpu(*sandbox).is_ok());
  EXPECT_EQ(sandbox->num_vcpus(), 3u);
  EXPECT_EQ(sandbox->merge_vcpus().size(), 3u);
  core::P2smIndex* index = engine.ull_manager().index_of(*sandbox);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->stats().incremental_removes, 1u);

  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  EXPECT_EQ(topology.queue(3).size(), 3u);
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, HorseHotplugCycleStress) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 1, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(engine.pause(*sandbox).is_ok());
    ASSERT_TRUE(engine.hotplug_vcpu(*sandbox).is_ok());
    ASSERT_TRUE(engine.hotplug_vcpu(*sandbox).is_ok());
    ASSERT_TRUE(engine.unplug_vcpu(*sandbox).is_ok());
    ASSERT_TRUE(engine.resume(*sandbox).is_ok());
    ASSERT_TRUE(topology.queue(3).is_sorted());
  }
  EXPECT_EQ(sandbox->num_vcpus(), 11u);  // +1 net per round
  EXPECT_EQ(topology.queue(3).size(), 11u);
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(HotplugTest, CoalescePrecomputeMatchesNewCount) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 2, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  ASSERT_TRUE(engine.hotplug_vcpu(*sandbox).is_ok());

  // Resume applies a 3-update coalesce; compare against 3 iterative
  // updates on a twin queue starting from the same load.
  sched::RunQueue reference(0);
  reference.set_load_for_test(topology.queue(3).load());
  for (int i = 0; i < 3; ++i) {
    reference.update_load_enqueue();
  }
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  EXPECT_NEAR(topology.queue(3).load(), reference.load(), 1e-9);
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

}  // namespace
}  // namespace horse
