// Cluster fault-ladder tests: the cluster.host_stall, cluster.host_crash
// and cluster.dispatch_drop sites drive quarantine, declared death,
// exactly-once re-dispatch (including orphan recovery with zombie
// dedup), rejoin, and the degrade-to-single-host / force-recover rungs.
// Compiled only with HORSE_FAULT_INJECTION (the binary is gated in
// CMake).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "cluster/scheduler.hpp"
#include "util/fault_injection.hpp"
#include "workloads/array_filter.hpp"

namespace horse::cluster {
namespace {

faas::FunctionSpec filter_spec() {
  faas::FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.name = "filter-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  return spec;
}

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {5, 10, 15};
  request.threshold = 7;
  return request;
}

class ClusterFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::global().reset(); }

  static ClusterConfig make_config(std::size_t hosts, DispatchMode dispatch) {
    ClusterConfig config;
    config.num_hosts = hosts;
    config.workers_per_host = 2;
    config.dispatch = dispatch;
    config.policy = PolicyKind::kRoundRobin;
    config.health_check_interval = 4;
    config.platform.num_cpus = 4;
    // Quarantine is unsticky now (half-open probes rejoin hosts), so
    // tests asserting on the hosts_quarantined GAUGE push the first
    // probe far past their own lifetime. Rejoin tests override this.
    config.health.probe_backoff_base = 3600 * util::kSecond;
    config.health.probe_backoff_cap = 3600 * util::kSecond;
    return config;
  }

  static void expect_exactly_once(
      const std::vector<faas::SubmissionOutcome>& outcomes,
      std::size_t expected) {
    ASSERT_EQ(outcomes.size(), expected) << "lost or duplicated submissions";
    std::set<std::uint64_t> seqs;
    for (const auto& outcome : outcomes) {
      EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
      EXPECT_TRUE(seqs.insert(outcome.seq).second)
          << "seq " << outcome.seq << " executed twice";
    }
  }
};

TEST_F(ClusterFaultTest, HostStallIsQuarantinedAndBacklogRedispatchedOnce) {
  ClusterScheduler cluster(make_config(3, DispatchMode::kPush));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  // First probe fires: the first submission's host stalls BEFORE the task
  // is enqueued, so at least that task sits in a parked queue until the
  // health sweep steals it.
  const auto fault = util::ScopedFault::nth("cluster.host_stall", 1);
  for (int i = 0; i < 30; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 30);
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.host_stalls, 1u);
  EXPECT_EQ(counters.hosts_quarantined, 1u);
  EXPECT_GE(counters.redispatched, 1u);
  EXPECT_EQ(counters.completed, 30u);
  // Exactly one host went down; the cluster never degraded to one.
  EXPECT_FALSE(counters.degraded_single_host);
}

TEST_F(ClusterFaultTest, StallLadderDegradesToSingleHostThenForcedRoute) {
  ClusterConfig config = make_config(2, DispatchMode::kPush);
  config.health_check_interval = 1;  // sweep on every submission
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  // Every fresh submission stalls its (healthy) host; re-dispatched tasks
  // are exempt, so stolen backlogs always make progress. With 2 hosts the
  // ladder must walk: quarantine → single-host → zero-healthy → forced
  // route with force_recover.
  const auto fault = util::ScopedFault::always("cluster.host_stall");
  for (int i = 0; i < 12; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 12);
  const ClusterCounters counters = cluster.counters();
  // hosts_quarantined is a gauge now; quarantine EVENTS = gauge +
  // rejoins + forced routes (each forced route force-recovers exactly
  // one counted-out host).
  EXPECT_GE(counters.hosts_quarantined + counters.hosts_rejoined +
                counters.forced_routes,
            2u);
  EXPECT_TRUE(counters.degraded_single_host);
  EXPECT_GE(counters.forced_routes, 1u);
  EXPECT_EQ(counters.completed, 12u);
}

TEST_F(ClusterFaultTest, DispatchDropIsRetriedExactlyOncePush) {
  ClusterScheduler cluster(make_config(3, DispatchMode::kPush));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::always("cluster.dispatch_drop", 5);
  for (int i = 0; i < 30; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 30);
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.dispatch_drops, 5u);
  EXPECT_EQ(counters.completed, 30u);
}

TEST_F(ClusterFaultTest, DispatchDropIsRetriedExactlyOncePull) {
  ClusterScheduler cluster(make_config(3, DispatchMode::kPull));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::always("cluster.dispatch_drop", 4);
  for (int i = 0; i < 24; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 24);
  EXPECT_EQ(cluster.counters().dispatch_drops, 4u);
}

TEST_F(ClusterFaultTest, PullHostStallsAtPickupAndClusterStillDrains) {
  ClusterScheduler cluster(make_config(3, DispatchMode::kPull));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::nth("cluster.host_stall", 1);
  for (int i = 0; i < 30; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 30);
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.host_stalls, 1u);
  // The stalled host was quarantined by a sweep (from submit or drain).
  EXPECT_GE(counters.hosts_quarantined, 1u);
}

TEST_F(ClusterFaultTest, QuarantinedHostKeepsItsHealthFlagUntilRecovered) {
  ClusterScheduler cluster(make_config(3, DispatchMode::kPush));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::nth("cluster.host_stall", 1);
  for (int i = 0; i < 12; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  (void)cluster.drain();
  const ClusterStats stats = cluster.stats();
  std::size_t unhealthy = 0;
  for (const HostStats& host : stats.hosts) {
    unhealthy += host.healthy ? 0 : 1;
  }
  // Dirigent-style: the only cluster record of the quarantine is the
  // host's own flag, and it survives into stats().
  EXPECT_EQ(unhealthy, 1u);
}

// --- crash tolerance (cluster.host_crash, §5.7) ----------------------------

/// A body that blocks until the test releases it, so a task stays in
/// flight across health sweeps without a bet on how long it takes to run.
class HeldFunction final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "held";
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kBackground;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return util::kMillisecond;
  }
  workloads::Response invoke(const workloads::Request&) override {
    entered_.fetch_add(1, std::memory_order_acq_rel);
    released_.wait(false, std::memory_order_acquire);
    workloads::Response response;
    response.allowed = true;
    return response;
  }

  /// Wait (bounded) until `count` bodies have started.
  [[nodiscard]] bool wait_entered(int count) const {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (entered_.load(std::memory_order_acquire) < count) {
      if (std::chrono::steady_clock::now() > give_up) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }
  void release() {
    released_.store(true, std::memory_order_release);
    released_.notify_all();
  }

 private:
  std::atomic<int> entered_{0};
  std::atomic<bool> released_{false};
};

TEST_F(ClusterFaultTest, CrashedHostIsDeclaredDeadAndBacklogRedispatched) {
  ClusterConfig config = make_config(2, DispatchMode::kPush);
  // Deterministic detector: every no-progress sweep of the dead host is a
  // missed heartbeat, and two misses kill it — drain's sweeps get there
  // without wall-clock tuning.
  config.health.lease_duration = 0;
  config.health.missed_to_death = 2;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  // The first submission's host dies at the submit probe: its queue keeps
  // accepting work (routing still sees it healthy) until the detector
  // declares it dead and the backlog re-dispatches.
  const auto fault = util::ScopedFault::nth("cluster.host_crash", 1);
  for (int i = 0; i < 20; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 20);
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.host_crashes, 1u);
  EXPECT_GE(counters.missed_heartbeats, 2u);
  EXPECT_EQ(counters.hosts_declared_dead, 1u);
  EXPECT_GE(counters.redispatched, 1u);
  EXPECT_EQ(counters.duplicates_suppressed, counters.orphans_redispatched)
      << "every orphan's zombie completion must be suppressed exactly once";
}

TEST_F(ClusterFaultTest, ZombieCompletionIsSuppressedExactlyOnce) {
  ClusterConfig config = make_config(2, DispatchMode::kPull);
  config.health_check_interval = 0;  // sweeps are driven manually below
  config.health.sweep_period = 0;
  config.health.lease_duration = 0;
  config.health.missed_to_death = 1;
  ClusterScheduler cluster(config);
  // One body instance serves both hosts: the zombie and its re-dispatched
  // copy both block in it until the sweeps are done.
  const auto held = std::make_shared<HeldFunction>();
  const auto fn = cluster.register_function([&held] {
    faas::FunctionSpec spec;
    spec.name = "held";
    spec.implementation = held;
    spec.sandbox.name = "held-sb";
    spec.sandbox.num_vcpus = 1;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    return spec;
  });
  ASSERT_TRUE(fn);
  // Pull mode probes the crash at task PICKUP — after the in-flight
  // registration — so the crashing host is mid-execution: the canonical
  // zombie. The crash flag is set on the worker before the body starts,
  // and the body holds until release(), so the task is in flight at both
  // sweeps below whatever the host's load. (Polling counters() instead
  // would not do: Platform::counters() takes the shard mutex the running
  // body holds, so it returns only once the body has finished.)
  const auto fault = util::ScopedFault::nth("cluster.host_crash", 1);
  cluster.submit(*fn, filter_request(), faas::StartMode::kCold);
  const bool entered = held->wait_entered(1);
  EXPECT_TRUE(entered) << "the held body never started";
  // First sweep may renew on completion progress; the second must miss
  // (missed_to_death = 1) and declare death, stealing the orphan.
  cluster.check_health();
  cluster.check_health();
  held->release();
  const std::vector<faas::SubmissionOutcome> outcomes = cluster.drain();
  // Exactly ONE outcome surfaces for the single submission, even though
  // two completions happened (zombie + re-dispatched copy).
  expect_exactly_once(outcomes, 1);
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.hosts_declared_dead, 1u);
  EXPECT_EQ(counters.orphans_redispatched, 1u);
  EXPECT_EQ(counters.duplicates_suppressed, 1u);
  EXPECT_EQ(counters.completed, 2u) << "zombie + copy both ran to completion";
}

TEST_F(ClusterFaultTest, CrashLadderServesDeadlineTrafficViaForcedRoutes) {
  // PR6 × PR5 × crash interaction: every fresh submission kills its host,
  // deadlines and admission stay active, and the zero-healthy rung must
  // still route — every submission ends completed XOR typed-shed.
  ClusterConfig config = make_config(2, DispatchMode::kPush);
  config.health_check_interval = 1;
  config.health.lease_duration = 0;
  config.health.missed_to_death = 1;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::always("cluster.host_crash");
  constexpr int kTotal = 12;
  for (int i = 0; i < kTotal; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold,
                   util::monotonic_now() + 10 * util::kSecond);
  }
  const std::vector<faas::SubmissionOutcome> outcomes = cluster.drain();
  std::set<std::uint64_t> seqs;
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(seqs.insert(outcome.seq).second)
        << "seq " << outcome.seq << " surfaced twice";
    if (outcome.status.is_ok()) {
      ++ok;
    } else {
      EXPECT_NE(outcome.reject, faas::SubmissionReject::kNone)
          << "failed outcome must carry a typed reject";
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, static_cast<std::size_t>(kTotal));
  const ClusterCounters counters = cluster.counters();
  EXPECT_GE(counters.host_crashes, 1u);
  EXPECT_GE(counters.forced_routes, 1u);
}

TEST_F(ClusterFaultTest, RestartedHostRejoinsWarmThroughHalfOpenProbe) {
  ClusterConfig config = make_config(2, DispatchMode::kPush);
  config.health_check_interval = 0;  // manual sweeps: deterministic steps
  config.health.sweep_period = 0;
  config.health.lease_duration = 0;
  config.health.missed_to_death = 1;
  config.health.probe_backoff_base = 1;  // probes due immediately
  config.health.probe_backoff_cap = 2;
  config.health.rehydrate_top_k = 2;
  config.health.rehydrate_per_function = 1;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  // Warm-up traffic: records recent invocations (the rehydration ranking)
  // and builds the snapshots rehydrate() restores from.
  for (int i = 0; i < 16; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  (void)cluster.drain();
  cluster.host(0).crash();
  cluster.check_health();  // may renew on warm-up progress
  cluster.check_health();  // no progress, not responsive: declared dead
  ASSERT_EQ(cluster.counters().hosts_declared_dead, 1u);
  EXPECT_FALSE(cluster.host(0).healthy());
  // Dead host flunks its probes; the gauge holds.
  cluster.check_health();
  EXPECT_EQ(cluster.counters().hosts_rejoined, 0u);
  // Process restart: the next probe answers, rehydration runs, and only
  // then does the host rejoin rotation — warm, not cold.
  cluster.host(0).restart();
  cluster.check_health();
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.hosts_rejoined, 1u);
  EXPECT_EQ(counters.hosts_quarantined, 0u) << "gauge decrements on rejoin";
  EXPECT_TRUE(cluster.host(0).healthy());
  EXPECT_GE(counters.rehydrated_sandboxes, 1u);
  EXPECT_GE(cluster.host(0).platform().warm_pool().available(*filter), 1u)
      << "post-failover traffic must find warm sandboxes, not cold starts";
}

TEST_F(ClusterFaultTest, StalledHostRejoinsAndGaugeDecrements) {
  // Unsticky quarantine for plain stalls too: a stalled-then-quarantined
  // host answers its half-open probe (the process never died) and comes
  // back without force_recover.
  ClusterConfig config = make_config(3, DispatchMode::kPush);
  config.health.probe_backoff_base = 1;
  config.health.probe_backoff_cap = 2;
  config.health.rehydrate_top_k = 0;  // rejoin ladder works without warmth
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const auto fault = util::ScopedFault::nth("cluster.host_stall", 1);
  for (int i = 0; i < 12; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_exactly_once(cluster.drain(), 12);
  // The probe is due (1-2 ns backoff): one sweep rejoins the host.
  cluster.check_health();
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.host_stalls, 1u);
  EXPECT_GE(counters.hosts_rejoined, 1u);
  EXPECT_EQ(counters.hosts_quarantined, 0u);
  EXPECT_FALSE(counters.degraded_single_host);
  for (std::size_t i = 0; i < cluster.num_hosts(); ++i) {
    EXPECT_TRUE(cluster.host(i).healthy()) << "host " << i;
  }
}

}  // namespace
}  // namespace horse::cluster
