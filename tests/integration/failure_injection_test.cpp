// Failure injection: drive every error path a production deployment would
// hit — bad configs, wrong lifecycle orders, exhausted pools, corrupted
// control-plane state, stale fast-path state — and verify the library
// reports structured errors and stays consistent (no leaked queue
// entries, no stuck locks) so the caller can always retry.
#include <gtest/gtest.h>

#include <memory>

#include "core/horse_resume.hpp"
#include "faas/platform.hpp"
#include "trace/trace_stats.hpp"
#include "workloads/array_filter.hpp"

namespace horse {
namespace {

std::unique_ptr<vmm::Sandbox> make_sandbox(sched::SandboxId id,
                                           std::uint32_t vcpus, bool ull) {
  vmm::SandboxConfig config;
  config.name = "fi";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = ull;
  return std::make_unique<vmm::Sandbox>(id, config);
}

TEST(FailureInjectionTest, LifecycleOrderViolationsAllRecoverable) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 2, true);

  // Everything before start() fails cleanly.
  EXPECT_FALSE(engine.pause(*sandbox).is_ok());
  EXPECT_FALSE(engine.resume(*sandbox).is_ok());

  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  EXPECT_FALSE(engine.start(*sandbox).is_ok());   // double start
  EXPECT_FALSE(engine.resume(*sandbox).is_ok());  // resume while running

  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  EXPECT_FALSE(engine.pause(*sandbox).is_ok());  // double pause

  // After each rejected call the engine still works.
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
  EXPECT_FALSE(engine.destroy(*sandbox).is_ok());  // double destroy
}

TEST(FailureInjectionTest, FailedResumeReleasesGlobalLock) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto running = make_sandbox(1, 1, true);
  ASSERT_TRUE(engine.start(*running).is_ok());
  // This resume fails in the sanity step, after the lock was taken.
  ASSERT_FALSE(engine.resume(*running).is_ok());
  // If the lock leaked, this pause would deadlock.
  ASSERT_TRUE(engine.pause(*running).is_ok());
  ASSERT_TRUE(engine.resume(*running).is_ok());
  ASSERT_TRUE(engine.destroy(*running).is_ok());
}

TEST(FailureInjectionTest, UntrackedUllSandboxResumeFailsCleanly) {
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 2, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  // Sabotage: drop the fast-path state behind the engine's back.
  engine.ull_manager().untrack(sandbox->id());
  const auto status = engine.resume(*sandbox);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
  // The sandbox is still paused and can be re-tracked via a fresh cycle.
  EXPECT_EQ(sandbox->state(), vmm::SandboxState::kPaused);
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(FailureInjectionTest, SandboxConfigValidation) {
  vmm::SandboxConfig config;
  config.num_vcpus = 0;
  config.memory_mb = 1;
  EXPECT_THROW(vmm::Sandbox(1, config), std::invalid_argument);
  config.num_vcpus = 1;
  config.memory_mb = 0;
  EXPECT_THROW(vmm::Sandbox(1, config), std::invalid_argument);
}

TEST(FailureInjectionTest, HorseConfigValidation) {
  sched::CpuTopology topology(4);
  core::HorseConfig config;
  config.num_ull_runqueues = 0;
  EXPECT_THROW(core::HorseResumeEngine(topology, vmm::VmmProfile::firecracker(),
                                       config),
               std::invalid_argument);
  config.num_ull_runqueues = 4;  // every CPU reserved
  EXPECT_THROW(core::HorseResumeEngine(topology, vmm::VmmProfile::firecracker(),
                                       config),
               std::invalid_argument);
}

TEST(FailureInjectionTest, PlatformSurvivesPoolExhaustion) {
  faas::PlatformConfig config;
  config.num_cpus = 4;
  config.warm_pool.max_per_function = 1;
  faas::Platform platform(config);
  faas::FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const auto id = *platform.registry().add(std::move(spec));

  workloads::Request request;
  request.payload = {1, 2, 3};
  request.threshold = 0;

  // First cold invocation pools its sandbox (cap 1). A second cold
  // invocation cannot pool another: its body already ran, so the call
  // succeeds and the overflowing sandbox is torn down as an eviction.
  ASSERT_TRUE(platform.invoke(id, request, faas::StartMode::kCold).has_value());
  const auto second = platform.invoke(id, request, faas::StartMode::kCold);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->mode, faas::StartMode::kCold);
  EXPECT_EQ(platform.warm_pool().available(id), 1u);
  const auto counters = platform.counters();
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.invocations, 2u);
  EXPECT_EQ(counters.pool_overflow_destroyed, 1u);
  // Warm path still works off the pooled sandbox.
  EXPECT_TRUE(platform.invoke(id, request, faas::StartMode::kWarm).has_value());
}

TEST(FailureInjectionTest, ProvisionUnknownFunctionFails) {
  faas::Platform platform{faas::PlatformConfig{}};
  EXPECT_EQ(platform.provision(404, 1).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(platform.ensure_snapshot(404).code(), util::StatusCode::kNotFound);
}

TEST(FailureInjectionTest, XenControlPlaneCorruptionCaughtEveryCycle) {
  sched::CpuTopology topology(4);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::xen());
  auto sandbox = make_sandbox(3, 1, false);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(engine.pause(*sandbox).is_ok());
    ASSERT_TRUE(engine.xenstore()
                    ->write(vmm::XenStore::domain_path(3) + "/state", "broken")
                    .is_ok());
    EXPECT_FALSE(engine.resume(*sandbox).is_ok());
    // Repair the store; the resume then succeeds.
    ASSERT_TRUE(engine.xenstore()
                    ->write(vmm::XenStore::domain_path(3) + "/state", "paused")
                    .is_ok());
    ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  }
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(FailureInjectionTest, P2smRejectsMergeAfterForeignQueueMutation) {
  // A non-uLL vCPU wandering onto the reserved queue (a scheduler bug in
  // a real deployment) must not corrupt a merge: the stale index is
  // detected and the inline rebuild re-partitions around the intruder.
  sched::CpuTopology topology(4);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_sandbox(1, 3, true);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());

  sched::Vcpu intruder;
  intruder.credit = 42;
  {
    util::LockGuard guard(topology.queue(3).lock());
    topology.queue(3).insert_sorted(intruder);
  }
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  EXPECT_TRUE(topology.queue(3).is_sorted());
  EXPECT_EQ(topology.queue(3).size(), 4u);  // 3 vCPUs + intruder
  {
    util::LockGuard guard(topology.queue(3).lock());
    topology.queue(3).remove(intruder);
  }
  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST(FailureInjectionTest, EmptyTraceAndDegenerateSchedules) {
  const auto stats = trace::analyze(trace::ArrivalSchedule{});
  EXPECT_EQ(stats.total_invocations, 0u);
  // Window fully outside the schedule.
  trace::ArrivalSchedule schedule({{10, 0}});
  EXPECT_TRUE(schedule.window(100, 200).empty());
}

}  // namespace
}  // namespace horse
