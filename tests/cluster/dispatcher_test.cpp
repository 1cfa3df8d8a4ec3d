// A host's worker pool (cluster::Dispatcher): submit-and-drain through a
// one-host ClusterScheduler, shard routing in push mode, and expiry at
// dequeue on a bare Host whose workers run the real Host::run_task.
#include "cluster/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/host.hpp"
#include "cluster/scheduler.hpp"
#include "held_function.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/nat.hpp"

namespace horse::cluster {
namespace {

faas::FunctionSpec ull_spec(std::string name,
                            std::shared_ptr<workloads::Function> impl) {
  faas::FunctionSpec spec;
  spec.sandbox.name = name + "-sb";
  spec.name = std::move(name);
  spec.implementation = std::move(impl);
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  return spec;
}

faas::FunctionSpec filter_spec() {
  return ull_spec("filter", std::make_shared<workloads::ArrayFilterFunction>());
}

faas::FunctionSpec nat_spec() {
  return ull_spec("nat", std::make_shared<workloads::NatFunction>(16));
}

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {5, 10, 15};
  request.threshold = 7;
  return request;
}

faas::PlatformConfig platform_config() {
  faas::PlatformConfig config;
  config.num_cpus = 4;
  return config;
}

ClusterConfig one_host(std::size_t workers) {
  ClusterConfig config;
  config.num_hosts = 1;
  config.workers_per_host = workers;
  config.platform = platform_config();
  return config;
}

/// Counts its runs: a body that must never run can say so.
class CountingBody final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "counting";
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kCategory3;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return 700;
  }
  workloads::Response invoke(const workloads::Request&) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  [[nodiscard]] int calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> calls_{0};
};

/// Poll (bounded) until the host has recorded `count` outcomes.
[[nodiscard]] bool wait_completed(const Host& host, std::uint64_t count) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (host.completed() < count) {
    if (std::chrono::steady_clock::now() > give_up) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

faas::Submission task_for(faas::FunctionId function, std::uint64_t seq) {
  faas::Submission task;
  task.function = function;
  task.mode = faas::StartMode::kCold;
  task.seq = seq;
  task.key = seq;
  task.enqueued_at = util::monotonic_now();
  return task;
}

// --- submit and drain, one host ---------------------------------------------

TEST(DispatcherTest, SubmitsAndDrains) {
  ClusterScheduler cluster(one_host(2));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  for (int i = 0; i < 20; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  const auto outcomes = cluster.drain();
  EXPECT_EQ(cluster.counters().submitted, 20u);
  ASSERT_EQ(outcomes.size(), 20u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
    EXPECT_EQ(outcome.record.response.indexes.size(), 2u);
    EXPECT_GE(outcome.queueing, 0);
  }
}

TEST(DispatcherTest, MixedFunctionsAndModes) {
  ClusterScheduler cluster(one_host(3));
  const auto filter = cluster.register_function(filter_spec);
  const auto nat = cluster.register_function(nat_spec);
  ASSERT_TRUE(filter);
  ASSERT_TRUE(nat);
  ASSERT_TRUE(cluster.provision(*filter, 2).is_ok());
  ASSERT_TRUE(cluster.provision(*nat, 2).is_ok());
  workloads::Request packet;
  packet.header = "src=1.1.1.1 dst=2.2.2.2 port=80 proto=tcp";
  for (int i = 0; i < 30; ++i) {
    if (i % 2 == 0) {
      cluster.submit(*filter, filter_request(), faas::StartMode::kHorse);
    } else {
      cluster.submit(*nat, packet, faas::StartMode::kWarm);
    }
  }
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 30u);
  int horse = 0;
  int warm = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
    (outcome.mode == faas::StartMode::kHorse ? horse : warm) += 1;
  }
  EXPECT_EQ(horse, 15);
  EXPECT_EQ(warm, 15);
  // Pools intact after the concurrent burst.
  faas::Platform& platform = cluster.host(0).platform();
  EXPECT_EQ(platform.warm_pool().available(*filter), 2u);
  EXPECT_EQ(platform.warm_pool().available(*nat), 2u);
}

TEST(DispatcherTest, ConcurrentSubmittersFromManyThreads) {
  ClusterScheduler cluster(one_host(2));
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  ASSERT_TRUE(cluster.provision(*filter, 1).is_ok());
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 25; ++i) {
          cluster.submit(*filter, filter_request(), faas::StartMode::kHorse);
        }
      });
    }
  }
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 100u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
  }
}

// --- push routing ------------------------------------------------------------

TEST(DispatcherTest, PushRoutesEachShardToOneWorker) {
  // Two workers. While a held body of function A runs, a second A waits
  // in A's worker queue (a free worker must not take it and then block
  // on A's shard mutex), and a function on the other worker's shard
  // runs to completion meanwhile.
  Host host(0, platform_config(), 2, nullptr);
  faas::Platform& platform = host.platform();
  const auto held = std::make_shared<test_harness::HeldFunction>();
  const faas::FunctionId a = *platform.registry().add(ull_spec("held", held));
  faas::FunctionId b = a;
  for (int i = 0; platform.shard_of(b) % 2 == platform.shard_of(a) % 2; ++i) {
    ASSERT_LT(i, 16) << "no function landed on the other worker";
    b = *platform.registry().add(ull_spec(
        "filter-" + std::to_string(i),
        std::make_shared<workloads::ArrayFilterFunction>()));
  }

  host.submit(task_for(a, 1));
  if (!held->wait_entered(1)) {
    held->release();
    FAIL() << "the held body never started";
  }
  host.submit(task_for(a, 2));
  host.submit(task_for(b, 3));
  const bool other_shard_completed = wait_completed(host, 1);
  const HostSnapshot during = host.snapshot(a, /*include_warm=*/false);
  held->release();

  EXPECT_TRUE(other_shard_completed) << "B queued behind the held body";
  EXPECT_EQ(during.queued, 1u) << "the second A left its worker's queue";
  EXPECT_EQ(during.in_flight, 1u);
  ASSERT_TRUE(wait_completed(host, 3));
  const auto outcomes = host.dispatcher().take_outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
  }
}

// --- expiry at dequeue -------------------------------------------------------

TEST(DispatcherExpiryTest, PastDeadlineExpiresWithoutExecuting) {
  Host host(0, platform_config(), 1, nullptr);
  const auto body = std::make_shared<CountingBody>();
  const faas::FunctionId fn =
      *host.platform().registry().add(ull_spec("counting", body));

  faas::Submission task = task_for(fn, 1);
  task.deadline = 1;  // monotonic epoch start: long past
  host.submit(std::move(task));
  ASSERT_TRUE(wait_completed(host, 1));
  const auto outcomes = host.dispatcher().take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(body->calls(), 0) << "expired work must never execute";
  EXPECT_EQ(outcomes[0].reject, faas::SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(host.expired(), 1u);
  EXPECT_EQ(host.completed(), 1u)
      << "expiry records an outcome, so accounting stays lossless";
}

TEST(DispatcherExpiryTest, SojournCapExpiresStaleTasks) {
  Host host(0, platform_config(), 1, nullptr, util::kMicrosecond);
  const auto body = std::make_shared<CountingBody>();
  const faas::FunctionId fn =
      *host.platform().registry().add(ull_spec("counting", body));

  // Backdate the enqueue far past the sojourn cap: the measured queueing
  // delay exceeds it no matter how fast the worker picks the task up.
  faas::Submission stale = task_for(fn, 1);
  stale.enqueued_at = util::monotonic_now() - util::kMillisecond;
  host.submit(std::move(stale));
  ASSERT_TRUE(wait_completed(host, 1));
  auto outcomes = host.dispatcher().take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(body->calls(), 0);
  EXPECT_EQ(outcomes[0].reject, faas::SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(host.expired(), 1u);

  // A fresh task may still trip a 1 µs cap under scheduler noise, so
  // only the accounting is asserted: it records exactly one more outcome.
  host.submit(task_for(fn, 2));
  ASSERT_TRUE(wait_completed(host, 2));
  outcomes = host.dispatcher().take_outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(host.completed(), 2u);
}

}  // namespace
}  // namespace horse::cluster
