#include "core/horse_resume.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "util/cycle_clock.hpp"

namespace horse::core {
namespace {

class HorseResumeTest : public ::testing::Test {
 protected:
  HorseResumeTest()
      : topology_(8),
        engine_(topology_, vmm::VmmProfile::firecracker(), HorseConfig{},
                HorseFeatures::all()) {}

  std::unique_ptr<vmm::Sandbox> make_sandbox(std::uint32_t vcpus, bool ull) {
    vmm::SandboxConfig config;
    config.name = ull ? "ull-fn" : "plain-fn";
    config.num_vcpus = vcpus;
    config.memory_mb = 1;
    config.ull = ull;
    return std::make_unique<vmm::Sandbox>(next_id_++, config);
  }

  std::size_t queued_on(sched::CpuId cpu) { return topology_.queue(cpu).size(); }

  sched::CpuTopology topology_;
  HorseResumeEngine engine_;
  sched::SandboxId next_id_ = 1;
};

TEST_F(HorseResumeTest, ReservesUllQueue) {
  EXPECT_TRUE(topology_.is_reserved(7));
  EXPECT_FALSE(topology_.is_reserved(0));
}

TEST_F(HorseResumeTest, PauseInstallsFastPathState) {
  auto sandbox = make_sandbox(4, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
  EXPECT_TRUE(sandbox->coalesce().valid);
  EXPECT_NE(engine_.ull_manager().index_of(*sandbox), nullptr);
  const auto cpu = engine_.ull_manager().assignment(*sandbox);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(*cpu, 7u);
  ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, NonUllSandboxSkipsFastPath) {
  auto sandbox = make_sandbox(2, false);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
  EXPECT_FALSE(sandbox->coalesce().valid);
  EXPECT_EQ(engine_.ull_manager().index_of(*sandbox), nullptr);
  ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  // Resumed onto general queues, never the reserved one.
  EXPECT_EQ(queued_on(7), 0u);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, ResumePlacesAllVcpusOnUllQueue) {
  auto sandbox = make_sandbox(6, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
  vmm::ResumeBreakdown breakdown;
  ASSERT_TRUE(engine_.resume(*sandbox, &breakdown).is_ok());
  EXPECT_EQ(sandbox->state(), vmm::SandboxState::kRunning);
  EXPECT_EQ(queued_on(7), 6u);
  EXPECT_TRUE(topology_.queue(7).is_sorted());
  EXPECT_EQ(sandbox->merge_vcpus().size(), 0u);
  for (const auto& vcpu : sandbox->vcpus()) {
    EXPECT_EQ(vcpu->state, sched::VcpuState::kRunnable);
    EXPECT_EQ(vcpu->last_cpu, 7u);
  }
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, ResumeConsumesFastPathState) {
  auto sandbox = make_sandbox(2, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
  ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  EXPECT_FALSE(sandbox->coalesce().valid);
  EXPECT_EQ(engine_.ull_manager().index_of(*sandbox), nullptr);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, PrologueCyclesAreStepsOneToThree) {
  if (!util::CycleClock::available()) {
    GTEST_SKIP() << "no cycle counter: cycle accounting is off";
  }
  auto sandbox = make_sandbox(2, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
    ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  }
  const ResumeCycleStats stats = engine_.cycle_stats();
  EXPECT_EQ(stats.resumes, 5u);
  EXPECT_GT(stats.parse_cycles, 0u);
  EXPECT_EQ(stats.prologue_cycles,
            stats.parse_cycles + stats.lock_cycles + stats.sanity_cycles);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, ResumeWithoutPauseFails) {
  auto sandbox = make_sandbox(1, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  EXPECT_FALSE(engine_.resume(*sandbox).is_ok());
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, CoalescedLoadMatchesVanillaIterative) {
  // Run the same pause/resume on two engines — HORSE coalesced vs vanilla
  // per-vCPU — and compare the resulting queue loads.
  sched::CpuTopology horse_topo(4);
  HorseResumeEngine horse(horse_topo, vmm::VmmProfile::firecracker());
  sched::CpuTopology vanilla_topo(4);
  vmm::ResumeEngine vanilla(vanilla_topo, vmm::VmmProfile::firecracker());

  auto ull = make_sandbox(8, true);
  ASSERT_TRUE(horse.start(*ull).is_ok());
  ASSERT_TRUE(horse.pause(*ull).is_ok());
  // Equalise the target queues' starting load, then resume both ways.
  horse_topo.queue(3).set_load_for_test(100.0);
  ASSERT_TRUE(horse.resume(*ull).is_ok());
  const double horse_load = horse_topo.queue(3).load();

  auto plain = make_sandbox(8, false);
  ASSERT_TRUE(vanilla.start(*plain).is_ok());
  ASSERT_TRUE(vanilla.pause(*plain).is_ok());
  // Force all 8 iterative updates onto CPU 0 by loading up the others.
  vanilla_topo.queue(0).set_load_for_test(100.0);
  vanilla_topo.queue(1).set_load_for_test(1e9);
  vanilla_topo.queue(2).set_load_for_test(1e9);
  vanilla_topo.queue(3).set_load_for_test(1e9);
  ASSERT_TRUE(vanilla.resume(*plain).is_ok());
  const double vanilla_load = vanilla_topo.queue(0).load();

  EXPECT_NEAR(horse_load, vanilla_load, 1e-6);
  ASSERT_TRUE(horse.destroy(*ull).is_ok());
  ASSERT_TRUE(vanilla.destroy(*plain).is_ok());
}

TEST_F(HorseResumeTest, RepeatedCyclesStayConsistent) {
  auto sandbox = make_sandbox(4, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  for (int cycle = 0; cycle < 25; ++cycle) {
    ASSERT_TRUE(engine_.pause(*sandbox).is_ok()) << "cycle " << cycle;
    ASSERT_TRUE(engine_.resume(*sandbox).is_ok()) << "cycle " << cycle;
    ASSERT_EQ(queued_on(7), 4u);
    ASSERT_TRUE(topology_.queue(7).is_sorted());
  }
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, MultiplePausedSandboxesResumeIndependently) {
  auto s1 = make_sandbox(2, true);
  auto s2 = make_sandbox(3, true);
  ASSERT_TRUE(engine_.start(*s1).is_ok());
  ASSERT_TRUE(engine_.start(*s2).is_ok());
  ASSERT_TRUE(engine_.pause(*s1).is_ok());
  ASSERT_TRUE(engine_.pause(*s2).is_ok());

  ASSERT_TRUE(engine_.resume(*s1).is_ok());
  ASSERT_TRUE(engine_.resume(*s2).is_ok());
  EXPECT_EQ(queued_on(7), 5u);
  EXPECT_TRUE(topology_.queue(7).is_sorted());
  ASSERT_TRUE(engine_.destroy(*s1).is_ok());
  ASSERT_TRUE(engine_.destroy(*s2).is_ok());
}

TEST_F(HorseResumeTest, StaleIndexFallbackRebuildsInline) {
  auto s1 = make_sandbox(2, true);
  auto s2 = make_sandbox(2, true);
  ASSERT_TRUE(engine_.start(*s1).is_ok());
  ASSERT_TRUE(engine_.start(*s2).is_ok());
  ASSERT_TRUE(engine_.pause(*s1).is_ok());
  ASSERT_TRUE(engine_.pause(*s2).is_ok());
  // Resuming s1 mutates the ull queue, so s2's index is stale; s2's own
  // resume freshens it in place and still takes the fast path.
  ASSERT_TRUE(engine_.resume(*s1).is_ok());
  ASSERT_TRUE(engine_.resume(*s2).is_ok());
  EXPECT_EQ(queued_on(7), 4u);
  EXPECT_TRUE(topology_.queue(7).is_sorted());
  const ResumeDegradationStats stats = engine_.degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_EQ(stats.in_place_rebuilds, 1u);
  ASSERT_TRUE(engine_.destroy(*s1).is_ok());
  ASSERT_TRUE(engine_.destroy(*s2).is_ok());
}

TEST_F(HorseResumeTest, TwoReservedQueuesKeepUllIsolation) {
  // Two reserved queues set at construction: sandboxes balanced across
  // both resume onto them and nowhere else.
  sched::CpuTopology topology(8);
  HorseConfig config;
  config.num_ull_runqueues = 2;
  HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(), config);

  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  for (int i = 0; i < 4; ++i) {
    auto sandbox = make_sandbox(2, true);
    ASSERT_TRUE(engine.start(*sandbox).is_ok());
    ASSERT_TRUE(engine.pause(*sandbox).is_ok());
    sandboxes.push_back(std::move(sandbox));
  }
  for (auto& sandbox : sandboxes) {
    ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  }
  // All vCPUs ended on the two reserved queues, both sorted.
  EXPECT_EQ(topology.queue(7).size() + topology.queue(6).size(), 8u);
  EXPECT_TRUE(topology.queue(7).is_sorted());
  EXPECT_TRUE(topology.queue(6).is_sorted());
  for (auto& sandbox : sandboxes) {
    ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
  }
}

// The stale-index scenario behind in-place freshening: a target and two
// neighbours pause onto the one reserved queue, the neighbours resume and
// then cycle `churn_cycles` times (each cycle is 8 queue mutations), and
// the target resumes last against an index that many versions behind.
// Returns the reserved queue's final (sandbox, credit) order.
std::vector<std::pair<sched::SandboxId, sched::Credit>> resume_after_churn(
    HorseResumeEngine& engine, sched::CpuTopology& topology,
    int churn_cycles) {
  const auto make = [](sched::SandboxId id,
                       std::vector<sched::Credit> credits) {
    vmm::SandboxConfig config;
    config.name = "churn";
    config.num_vcpus = static_cast<std::uint32_t>(credits.size());
    config.memory_mb = 1;
    config.ull = true;
    auto sandbox = std::make_unique<vmm::Sandbox>(id, config);
    for (std::size_t i = 0; i < credits.size(); ++i) {
      sandbox->vcpu(static_cast<std::uint32_t>(i)).credit = credits[i];
    }
    return sandbox;
  };
  // Distinct credits, interleaved across sandboxes, so every anchor and
  // every run boundary of the target's index is exercised.
  auto target = make(1, {50, 10, 30});
  auto small = make(2, {20, 40});
  auto churner = make(3, {5, 25, 35, 60});
  for (auto* sandbox : {target.get(), small.get(), churner.get()}) {
    EXPECT_TRUE(engine.start(*sandbox).is_ok());
    EXPECT_TRUE(engine.pause(*sandbox).is_ok());
  }
  EXPECT_TRUE(engine.resume(*small).is_ok());
  EXPECT_TRUE(engine.resume(*churner).is_ok());
  for (int cycle = 0; cycle < churn_cycles; ++cycle) {
    EXPECT_TRUE(engine.pause(*churner).is_ok());
    EXPECT_TRUE(engine.resume(*churner).is_ok());
  }
  EXPECT_TRUE(engine.resume(*target).is_ok());

  std::vector<std::pair<sched::SandboxId, sched::Credit>> order;
  for (const sched::Vcpu& vcpu : topology.queue(7).list()) {
    order.emplace_back(vcpu.sandbox, vcpu.credit);
  }
  EXPECT_TRUE(topology.queue(7).is_sorted());
  for (auto* sandbox : {target.get(), small.get(), churner.get()}) {
    EXPECT_TRUE(engine.destroy(*sandbox).is_ok());
  }
  return order;
}

TEST(HorseInPlaceFreshenTest, RebuildMatchesTheVanillaWalk) {
  // Two step-④ rebuilds whatever the churn: the churner's first resume
  // (2 versions behind the small neighbour's splice) and the target's
  // (6 versions behind without churn, 6+8·c after c cycles). A pause
  // rebuilds the churner's own index, so its later resumes are fresh.
  for (const int churn_cycles : {0, 1, 8}) {
    SCOPED_TRACE(churn_cycles);
    sched::CpuTopology topology(8);
    HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
    // Reference: the same engine shape without 𝒫²𝒮ℳ takes the vanilla
    // sorted walk onto the same reserved queue.
    sched::CpuTopology vanilla_topology(8);
    HorseResumeEngine vanilla(vanilla_topology, vmm::VmmProfile::firecracker(),
                              HorseConfig{}, HorseFeatures::coalescing_only());

    const auto horse_order = resume_after_churn(engine, topology,
                                                churn_cycles);
    const auto vanilla_order =
        resume_after_churn(vanilla, vanilla_topology, churn_cycles);
    EXPECT_EQ(horse_order.size(), 9u);
    EXPECT_EQ(horse_order, vanilla_order);

    const ResumeDegradationStats stats = engine.degradation_stats();
    EXPECT_EQ(stats.fallback_merges, 0u);
    EXPECT_EQ(stats.in_place_rebuilds, 2u);
  }
}

TEST_F(HorseResumeTest, PpsmOnlyFeatureSet) {
  sched::CpuTopology topo(4);
  HorseResumeEngine ppsm(topo, vmm::VmmProfile::firecracker(), HorseConfig{},
                         HorseFeatures::ppsm_only());
  auto sandbox = make_sandbox(4, true);
  ASSERT_TRUE(ppsm.start(*sandbox).is_ok());
  ASSERT_TRUE(ppsm.pause(*sandbox).is_ok());
  EXPECT_FALSE(sandbox->coalesce().valid);  // coalescing off
  vmm::ResumeBreakdown breakdown;
  ASSERT_TRUE(ppsm.resume(*sandbox, &breakdown).is_ok());
  EXPECT_EQ(topo.queue(3).size(), 4u);
  EXPECT_TRUE(topo.queue(3).is_sorted());
  ASSERT_TRUE(ppsm.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, CoalescingOnlyFeatureSet) {
  sched::CpuTopology topo(4);
  HorseResumeEngine coal(topo, vmm::VmmProfile::firecracker(), HorseConfig{},
                         HorseFeatures::coalescing_only());
  auto sandbox = make_sandbox(4, true);
  ASSERT_TRUE(coal.start(*sandbox).is_ok());
  ASSERT_TRUE(coal.pause(*sandbox).is_ok());
  EXPECT_TRUE(sandbox->coalesce().valid);
  EXPECT_EQ(coal.ull_manager().index_of(*sandbox), nullptr);  // no 𝒫²𝒮ℳ
  ASSERT_TRUE(coal.resume(*sandbox).is_ok());
  EXPECT_EQ(topo.queue(3).size(), 4u);
  EXPECT_TRUE(topo.queue(3).is_sorted());
  ASSERT_TRUE(coal.destroy(*sandbox).is_ok());
}

TEST_F(HorseResumeTest, BreakdownHasMergeAndLoadSteps) {
  auto sandbox = make_sandbox(16, true);
  ASSERT_TRUE(engine_.start(*sandbox).is_ok());
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());
  vmm::ResumeBreakdown breakdown;
  ASSERT_TRUE(engine_.resume(*sandbox, &breakdown).is_ok());
  EXPECT_GT(breakdown.merge, 0);
  EXPECT_GE(breakdown.load_update, 0);
  EXPECT_GT(breakdown.total(), 0);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

}  // namespace
}  // namespace horse::core
