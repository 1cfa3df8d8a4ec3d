// The graceful-degradation ladder, rung by rung, driven by injected
// faults:
//
//   engine rung    — a poisoned 𝒫²𝒮ℳ index demotes one resume to the
//                    vanilla sorted-merge walk. The resume succeeds. (A
//                    merely stale index is no rung: step ④ freshens it in
//                    place and still splices in O(1).)
//   platform rung  — a failed start attempt demotes the invocation one
//                    rung colder (kHorse → kWarm → kRestore → kCold), and
//                    a sandbox whose resume fails repeatedly is
//                    quarantined. The invocation succeeds at a colder
//                    rung.
//
// Every scenario is deterministic: faults are armed by exact hit count
// (arm_nth / arm_always) on the process-global injector and disarmed via
// ScopedFault, so each test stands alone.
#include <gtest/gtest.h>

#include <memory>

#include "core/horse_resume.hpp"
#include "faas/platform.hpp"
#include "util/fault_injection.hpp"
#include "vmm/snapshot.hpp"
#include "workloads/array_filter.hpp"

namespace horse {
namespace {

using util::FaultInjector;
using util::ScopedFault;

std::unique_ptr<vmm::Sandbox> make_ull_sandbox(sched::SandboxId id,
                                               std::uint32_t vcpus) {
  vmm::SandboxConfig config;
  config.name = "ull-fn";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = true;
  return std::make_unique<vmm::Sandbox>(id, config);
}

class FaultLadderTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

// ---------------------------------------------------------------------------
// Engine rung: a stale 𝒫²𝒮ℳ index is freshened in place; only a poisoned
// one falls back to the vanilla merge.
// ---------------------------------------------------------------------------

TEST_F(FaultLadderTest, StaleIndexIsRebuiltInPlaceAndSplicedFast) {
  sched::CpuTopology topology(8);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_ull_sandbox(1, 4);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());

  {
    // The injected foreign mutation un-builds the index: step ④
    // rebuilds it in place, then splices.
    auto fault = ScopedFault::nth("horse.resume.stale_index", 1);
    ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  }

  EXPECT_EQ(sandbox->state(), vmm::SandboxState::kRunning);
  EXPECT_EQ(topology.queue(7).size(), 4u);
  EXPECT_TRUE(topology.queue(7).is_sorted());
  for (const auto& vcpu : sandbox->vcpus()) {
    EXPECT_EQ(vcpu->state, sched::VcpuState::kRunnable);
    EXPECT_EQ(vcpu->last_cpu, 7u);
  }

  const core::ResumeDegradationStats stats = engine.degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_EQ(stats.poisoned_index_fallbacks, 0u);
  EXPECT_EQ(stats.in_place_rebuilds, 1u);

  // The fault fired once; the next cycle's index is fresh at resume.
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  EXPECT_EQ(engine.degradation_stats().fallback_merges, 0u);
  EXPECT_EQ(engine.degradation_stats().in_place_rebuilds, 1u);

  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST_F(FaultLadderTest, PoisonedIndexFallsBackToVanillaMerge) {
  sched::CpuTopology topology(8);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  auto sandbox = make_ull_sandbox(1, 3);
  ASSERT_TRUE(engine.start(*sandbox).is_ok());

  {
    // Corrupt the index at build time (pause), then resume against it.
    auto fault = ScopedFault::nth("p2sm.rebuild.corrupt_anchor", 1);
    ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  }
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());

  EXPECT_EQ(topology.queue(7).size(), 3u);
  EXPECT_TRUE(topology.queue(7).is_sorted());
  const core::ResumeDegradationStats stats = engine.degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 1u);
  EXPECT_EQ(stats.poisoned_index_fallbacks, 1u);
  EXPECT_EQ(stats.in_place_rebuilds, 0u);

  // A clean pause rebuilds a healthy index: fast path restored.
  ASSERT_TRUE(engine.pause(*sandbox).is_ok());
  ASSERT_TRUE(engine.resume(*sandbox).is_ok());
  EXPECT_EQ(engine.degradation_stats().fallback_merges, 1u);

  ASSERT_TRUE(engine.destroy(*sandbox).is_ok());
}

TEST_F(FaultLadderTest, ResumePrologueFaultsLeaveSandboxRetryable) {
  sched::CpuTopology topology(4);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  vmm::SandboxConfig config;
  config.name = "plain";
  config.num_vcpus = 2;
  config.memory_mb = 1;
  vmm::Sandbox sandbox(1, config);
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());

  {
    auto fault = ScopedFault::nth("resume.parse.fault", 1);
    const util::Status status = engine.resume(sandbox);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(sandbox.state(), vmm::SandboxState::kPaused);

  {
    auto fault = ScopedFault::nth("resume.sanity.fault", 1);
    const util::Status status = engine.resume(sandbox);
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  }
  EXPECT_EQ(sandbox.state(), vmm::SandboxState::kPaused);

  // Both failures were transient: the very next resume succeeds.
  ASSERT_TRUE(engine.resume(sandbox).is_ok());
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());
}

// ---------------------------------------------------------------------------
// Snapshot + warm-pool fault sites (the platform ladder's raw material).
// ---------------------------------------------------------------------------

TEST_F(FaultLadderTest, CorruptSnapshotRestoreIsDetected) {
  sched::CpuTopology topology(2);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  vmm::SnapshotManager manager(vmm::VmmProfile::firecracker());
  vmm::SandboxConfig config;
  config.name = "snap";
  config.num_vcpus = 1;
  config.memory_mb = 1;
  vmm::Sandbox sandbox(1, config);
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());
  const auto snapshot = manager.take(sandbox);
  ASSERT_TRUE(snapshot.has_value());

  {
    auto fault = ScopedFault::nth("snapshot.restore.corrupt", 1);
    const auto restored = manager.restore(*snapshot, 2);
    ASSERT_FALSE(restored.has_value());
    EXPECT_EQ(restored.status().code(), util::StatusCode::kInternal);
  }
  // The snapshot itself is fine; only that restore attempt was corrupt.
  const auto retried = manager.restore(*snapshot, 3);
  EXPECT_TRUE(retried.has_value());
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());
}

TEST_F(FaultLadderTest, WarmPoolFaultSitesKeepAccountingConsistent) {
  faas::WarmPool pool;
  vmm::SandboxConfig config;
  config.name = "pooled";
  config.num_vcpus = 1;
  config.memory_mb = 1;
  auto sandbox = std::make_unique<vmm::Sandbox>(1, config);
  sandbox->set_state(vmm::SandboxState::kPaused);

  {
    // Injected park rejection: the sandbox comes back to the caller.
    auto fault = ScopedFault::nth("warm_pool.park.reject", 1);
    std::unique_ptr<vmm::Sandbox> rejected;
    const auto status = pool.put(0, std::move(sandbox), 0, &rejected);
    EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(pool.available(0), 0u);
    sandbox = std::move(rejected);
  }
  ASSERT_TRUE(pool.put(0, std::move(sandbox), 0).is_ok());
  EXPECT_EQ(pool.available(0), 1u);

  {
    // Injected take miss: the entry stays parked.
    auto fault = ScopedFault::nth("warm_pool.take.miss", 1);
    EXPECT_EQ(pool.take(0), nullptr);
  }
  EXPECT_EQ(pool.available(0), 1u);
  EXPECT_NE(pool.take(0), nullptr);
}

// ---------------------------------------------------------------------------
// Platform rung: the retry ladder and sandbox health quarantine.
// ---------------------------------------------------------------------------

class PlatformLadderTest : public FaultLadderTest {
 protected:
  PlatformLadderTest() : platform_(make_config()) {
    faas::FunctionSpec spec;
    spec.name = "filter";
    spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    spec.sandbox.name = "filter-sb";
    spec.sandbox.num_vcpus = 1;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    function_ = *platform_.registry().add(std::move(spec));
  }

  static faas::PlatformConfig make_config() {
    faas::PlatformConfig config;
    config.num_cpus = 4;
    config.seed = 7;
    return config;
  }

  static workloads::Request request() {
    workloads::Request r;
    r.payload = {1, 5, 10};
    r.threshold = 4;
    return r;
  }

  faas::Platform platform_;
  faas::FunctionId function_ = 0;
};

TEST_F(PlatformLadderTest, TakeMissDemotesHorseToWarm) {
  ASSERT_TRUE(platform_.provision(function_, 1).is_ok());
  auto fault = ScopedFault::nth("warm_pool.take.miss", 1);
  const auto record =
      platform_.invoke(function_, request(), faas::StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->requested, faas::StartMode::kHorse);
  EXPECT_EQ(record->mode, faas::StartMode::kWarm);
  EXPECT_EQ(record->fallbacks, 1u);
  EXPECT_GT(record->retry_backoff, 0);
  const auto counters = platform_.counters();
  EXPECT_EQ(counters.rung_fallbacks, 1u);
  EXPECT_EQ(counters.degraded_invocations, 1u);
  EXPECT_EQ(counters.warm, 1u);
  EXPECT_EQ(counters.horse, 0u);
}

TEST_F(PlatformLadderTest, CorruptSnapshotDemotesRestoreToCold) {
  auto fault = ScopedFault::nth("snapshot.restore.corrupt", 1);
  const auto record =
      platform_.invoke(function_, request(), faas::StartMode::kRestore);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->requested, faas::StartMode::kRestore);
  EXPECT_EQ(record->mode, faas::StartMode::kCold);
  EXPECT_EQ(record->fallbacks, 1u);

  // The corrupt snapshot was dropped; the next restore rebuilds a fresh
  // one and succeeds at the requested rung.
  const auto retried =
      platform_.invoke(function_, request(), faas::StartMode::kRestore);
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->mode, faas::StartMode::kRestore);
}

TEST_F(PlatformLadderTest, RepeatedResumeFailureQuarantinesSandbox) {
  ASSERT_TRUE(platform_.provision(function_, 1).is_ok());
  // Every resume attempt fails at the control-plane sanity step. The
  // default quarantine threshold is 2: strike one re-pools the sandbox,
  // strike two destroys it, and the ladder completes the invocation via
  // a snapshot restore (which never resumes).
  auto fault = ScopedFault::always("resume.sanity.fault");
  const auto record =
      platform_.invoke(function_, request(), faas::StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->requested, faas::StartMode::kHorse);
  EXPECT_EQ(record->mode, faas::StartMode::kRestore);
  EXPECT_EQ(record->fallbacks, 2u);

  const auto counters = platform_.counters();
  EXPECT_EQ(counters.rung_fallbacks, 2u);
  EXPECT_EQ(counters.degraded_invocations, 1u);
  EXPECT_EQ(counters.sandboxes_quarantined, 1u);
  EXPECT_EQ(counters.restore, 1u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST_F(PlatformLadderTest, StaleIndexIsRebuiltInPlaceWithoutDemotion) {
  ASSERT_TRUE(platform_.provision(function_, 1).is_ok());
  // A stale index is handled INSIDE the engine (in-place rebuild, then the
  // O(1) splice): the resume succeeds, so the platform never demotes.
  auto fault = ScopedFault::nth("horse.resume.stale_index", 1);
  const auto record =
      platform_.invoke(function_, request(), faas::StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->mode, faas::StartMode::kHorse);
  EXPECT_EQ(record->fallbacks, 0u);
  const auto stats = platform_.resume_degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_EQ(stats.in_place_rebuilds, 1u);
  EXPECT_EQ(platform_.counters().rung_fallbacks, 0u);
}

TEST_F(PlatformLadderTest, ParkRejectionTearsDownSandboxProperly) {
  // The post-execution re-pool is NOT ladder material: the body already
  // ran, so a park rejection is an eviction, not a failure. The call
  // succeeds, and the sandbox must be torn down fully (no leaked engine
  // tracking) and counted.
  auto fault = ScopedFault::nth("warm_pool.park.reject", 1);
  const auto record =
      platform_.invoke(function_, request(), faas::StartMode::kCold);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->mode, faas::StartMode::kCold);
  const auto counters = platform_.counters();
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.invocations, 1u);
  EXPECT_EQ(counters.pool_overflow_destroyed, 1u);
  EXPECT_EQ(platform_.warm_pool().available(function_), 0u);

  // The platform is healthy afterwards: a fresh cold start pools fine.
  const auto retried =
      platform_.invoke(function_, request(), faas::StartMode::kCold);
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(platform_.warm_pool().available(function_), 1u);
}

TEST_F(PlatformLadderTest, DisabledLadderSurfacesRawErrors) {
  faas::PlatformConfig config = make_config();
  config.degradation.enabled = false;
  faas::Platform platform(config);
  faas::FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.name = "filter-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const auto id = *platform.registry().add(std::move(spec));

  auto fault = ScopedFault::nth("snapshot.restore.corrupt", 1);
  const auto record =
      platform.invoke(id, request(), faas::StartMode::kRestore);
  EXPECT_FALSE(record.has_value());
  EXPECT_EQ(record.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(platform.counters().rung_fallbacks, 0u);
}

}  // namespace
}  // namespace horse
