#include "cluster/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "held_function.hpp"
#include "util/yield_point.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/nat.hpp"

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

faas::FunctionSpec nat_spec() {
  faas::FunctionSpec spec;
  spec.name = "nat";
  spec.implementation = std::make_shared<workloads::NatFunction>(16);
  spec.sandbox.name = "nat-sb";
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

ClusterConfig make_config(std::size_t hosts, DispatchMode dispatch,
                          PolicyKind policy) {
  ClusterConfig config;
  config.num_hosts = hosts;
  config.workers_per_host = 2;
  config.dispatch = dispatch;
  config.policy = policy;
  config.platform.num_cpus = 4;
  return config;
}

void expect_all_ok(const std::vector<faas::SubmissionOutcome>& outcomes,
                   std::size_t expected) {
  ASSERT_EQ(outcomes.size(), expected);
  std::set<std::uint64_t> seqs;
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
    EXPECT_TRUE(seqs.insert(outcome.seq).second)
        << "seq " << outcome.seq << " completed twice";
  }
}

TEST(ClusterSchedulerTest, PushEndToEndForEveryPolicy) {
  for (const PolicyKind policy :
       {PolicyKind::kRoundRobin, PolicyKind::kLeastLoaded,
        PolicyKind::kMostWarmSlots}) {
    ClusterScheduler cluster(make_config(3, DispatchMode::kPush, policy));
    const auto filter = cluster.register_function(filter_spec);
    ASSERT_TRUE(filter) << to_string(policy);
    for (int i = 0; i < 60; ++i) {
      cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
    }
    expect_all_ok(cluster.drain(), 60);
    const ClusterCounters counters = cluster.counters();
    EXPECT_EQ(counters.submitted, 60u) << to_string(policy);
    EXPECT_EQ(counters.completed, 60u) << to_string(policy);
  }
}

TEST(ClusterSchedulerTest, PullEndToEnd) {
  ClusterScheduler cluster(
      make_config(3, DispatchMode::kPull, PolicyKind::kRoundRobin));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  for (int i = 0; i < 60; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  const auto outcomes = cluster.drain();
  expect_all_ok(outcomes, 60);
  // Every outcome names the host that executed it.
  for (const auto& outcome : outcomes) {
    EXPECT_LT(outcome.host, 3u);
  }
}

TEST(ClusterSchedulerTest, RoundRobinSpreadsDecisionsEvenly) {
  ClusterScheduler cluster(
      make_config(4, DispatchMode::kPush, PolicyKind::kRoundRobin));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  for (int i = 0; i < 40; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_all_ok(cluster.drain(), 40);
  const ClusterStats stats = cluster.stats();
  ASSERT_EQ(stats.hosts.size(), 4u);
  for (const HostStats& host : stats.hosts) {
    EXPECT_EQ(host.policy_decisions, 10u) << "host " << host.host;
    EXPECT_EQ(host.dispatched, 10u) << "host " << host.host;
  }
}

TEST(ClusterSchedulerTest, MultipleFunctionsAgreeOnIdsAcrossHosts) {
  ClusterScheduler cluster(
      make_config(2, DispatchMode::kPush, PolicyKind::kLeastLoaded));
  const auto filter = cluster.register_function(filter_spec);
  const auto nat = cluster.register_function(nat_spec);
  ASSERT_TRUE(filter);
  ASSERT_TRUE(nat);
  EXPECT_NE(*filter, *nat);
  ASSERT_TRUE(cluster.provision(*filter, 2).is_ok());

  workloads::Request packet;
  packet.header = "src=1.1.1.1 dst=2.2.2.2 port=80 proto=tcp";
  for (int i = 0; i < 30; ++i) {
    if (i % 2 == 0) {
      cluster.submit(*filter, filter_request(), faas::StartMode::kHorse);
    } else {
      cluster.submit(*nat, packet, faas::StartMode::kCold);
    }
  }
  const auto outcomes = cluster.drain();
  expect_all_ok(outcomes, 30);
  int horse = 0;
  for (const auto& outcome : outcomes) {
    horse += outcome.mode == faas::StartMode::kHorse ? 1 : 0;
  }
  EXPECT_EQ(horse, 15);
}

TEST(ClusterSchedulerTest, StatsAreReconstructedFromHosts) {
  ClusterScheduler cluster(
      make_config(2, DispatchMode::kPush, PolicyKind::kMostWarmSlots));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  ASSERT_TRUE(cluster.provision(*filter, 2).is_ok());
  for (int i = 0; i < 20; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kWarm);
  }
  expect_all_ok(cluster.drain(), 20);

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.policy, PolicyKind::kMostWarmSlots);
  EXPECT_EQ(stats.dispatch, DispatchMode::kPush);
  ASSERT_EQ(stats.hosts.size(), 2u);
  std::uint64_t completed = 0;
  std::uint64_t decisions = 0;
  for (const HostStats& host : stats.hosts) {
    EXPECT_TRUE(host.healthy);
    EXPECT_EQ(host.queued, 0u);
    EXPECT_EQ(host.in_flight, 0u);
    // Warm starts park the sandbox back: each host keeps its 2 pooled.
    EXPECT_EQ(host.pool_sandboxes, 2u);
    EXPECT_EQ(host.dispatch_latency.count(), host.completed);
    completed += host.completed;
    decisions += host.policy_decisions;
  }
  EXPECT_EQ(completed, 20u);
  EXPECT_EQ(decisions, 20u);
  EXPECT_EQ(stats.counters.completed, 20u);
  EXPECT_FALSE(stats.counters.degraded_single_host);
}

TEST(ClusterSchedulerTest, PullBackpressureWithTinyQueueStillCompletes) {
  ClusterConfig config =
      make_config(2, DispatchMode::kPull, PolicyKind::kRoundRobin);
  config.pull_queue_capacity = 2;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  for (int i = 0; i < 50; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  expect_all_ok(cluster.drain(), 50);
}

TEST(ClusterSchedulerTest, DrainOnIdleClusterIsEmpty) {
  ClusterScheduler cluster(
      make_config(2, DispatchMode::kPush, PolicyKind::kRoundRobin));
  EXPECT_TRUE(cluster.drain().empty());
}

TEST(ClusterSchedulerTest, ErrorsSurfaceInOutcomes) {
  ClusterConfig config =
      make_config(2, DispatchMode::kPush, PolicyKind::kRoundRobin);
  config.platform.degradation.enabled = false;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  cluster.submit(*filter, filter_request(), faas::StartMode::kWarm);  // empty pool
  cluster.submit(999, filter_request(), faas::StartMode::kCold);      // unknown
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.status.is_ok());
  }
}

TEST(ClusterSchedulerTest, CountersReadDoesNotWaitForARunningBody) {
  ClusterConfig config =
      make_config(1, DispatchMode::kPush, PolicyKind::kRoundRobin);
  config.health.sweep_period = 0;
  ClusterScheduler cluster(config);
  const auto held = std::make_shared<test_harness::HeldFunction>();
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
  cluster.submit(*fn, filter_request(), faas::StartMode::kCold);
  ASSERT_TRUE(held->wait_entered(1)) << "the held body never started";
  // The body now runs inside its shard's mutex until release().
  std::promise<ClusterCounters> read;
  std::future<ClusterCounters> answer = read.get_future();
  std::thread reader([&] { read.set_value(cluster.counters()); });
  const bool answered =
      answer.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  held->release();
  reader.join();
  EXPECT_TRUE(answered) << "counters() waited for the running body";
  EXPECT_EQ(answer.get().submitted, 1u);
  expect_all_ok(cluster.drain(), 1);
}

#if defined(HORSE_SCHED_TEST)

// Holds the armed thread's next dispatch between route and submit (the
// cluster.dispatch.routed yield point) until a health sweep on another
// thread has finished. A sweep that has to wait for that dispatch never
// finishes inside the window, so the hold gives up after a bound.
struct RouteSubmitWindow {
  static inline std::mutex mutex;
  static inline std::condition_variable changed;
  static inline bool held = false;
  static inline bool sweep_done = false;
  static inline thread_local bool armed = false;

  static void hook(const char* site) noexcept {
    if (!armed || std::strcmp(site, "cluster.dispatch.routed") != 0) {
      return;
    }
    armed = false;
    std::unique_lock lock(mutex);
    held = true;
    changed.notify_all();
    changed.wait_for(lock, std::chrono::milliseconds(200),
                     [] { return sweep_done; });
  }
};

TEST(ClusterSchedulerTest, HostDeclaredDeadBetweenRouteAndSubmitStrandsNothing) {
  ClusterConfig config =
      make_config(2, DispatchMode::kPush, PolicyKind::kRoundRobin);
  config.health_check_interval = 0;  // the one sweep is driven below
  config.health.sweep_period = 0;
  config.health.lease_duration = 0;
  config.health.missed_to_death = 1;
  // No half-open probe within the test: only the declare-dead steal can
  // move a task off the dead host.
  config.health.probe_backoff_base = 3600 * util::kSecond;
  config.health.probe_backoff_cap = 3600 * util::kSecond;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  RouteSubmitWindow::held = false;
  RouteSubmitWindow::sweep_done = false;
  // Round robin: the first submission goes to host 0, the second to
  // host 1, which has crashed but is not yet out of rotation.
  cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  cluster.host(1).crash();

  util::set_yield_hook(&RouteSubmitWindow::hook);
  std::thread submitter([&] {
    RouteSubmitWindow::armed = true;
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  });
  bool held = false;
  {
    std::unique_lock lock(RouteSubmitWindow::mutex);
    held = RouteSubmitWindow::changed.wait_for(
        lock, std::chrono::seconds(10), [] { return RouteSubmitWindow::held; });
  }
  // Routed to host 1 and not yet submitted: declare host 1 dead now.
  std::thread sweeper([&] {
    cluster.check_health();
    std::lock_guard lock(RouteSubmitWindow::mutex);
    RouteSubmitWindow::sweep_done = true;
    RouteSubmitWindow::changed.notify_all();
  });
  submitter.join();
  sweeper.join();
  util::set_yield_hook(nullptr);
  EXPECT_TRUE(held) << "no dispatch stopped at cluster.dispatch.routed";
  EXPECT_EQ(cluster.counters().hosts_declared_dead, 1u);

  auto drained = std::async(std::launch::async, [&] { return cluster.drain(); });
  if (drained.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "a submission queued on host 1 after it was declared "
                     "dead never ran";
    cluster.host(1).force_recover();  // let drain() return
  }
  expect_all_ok(drained.get(), 2);
}

#endif  // HORSE_SCHED_TEST

}  // namespace
}  // namespace horse::cluster
