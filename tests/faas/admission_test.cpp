// Unit tier for the overload-control building blocks: typed rejects, the
// host-wide RetryBudget, the per-function CircuitBreaker, the bounded
// queue's non-blocking push, deadline expiry at a host's dispatcher, and
// the platform-level admission gates. No fault injection here —
// everything is driven through public APIs with explicit clocks/seeds.
#include "faas/admission.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "faas/platform.hpp"
#include "faas/submission.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workloads/array_filter.hpp"

namespace horse::faas {
namespace {

// --- SubmissionReject ------------------------------------------------------

TEST(SubmissionRejectTest, ToStringCoversEveryReason) {
  EXPECT_EQ(to_string(SubmissionReject::kNone), "none");
  EXPECT_EQ(to_string(SubmissionReject::kDeadlineExpired), "deadline_expired");
  EXPECT_EQ(to_string(SubmissionReject::kQueueShed), "queue_shed");
  EXPECT_EQ(to_string(SubmissionReject::kQueueFull), "queue_full");
  EXPECT_EQ(to_string(SubmissionReject::kShardOverload), "shard_overload");
  EXPECT_EQ(to_string(SubmissionReject::kBreakerOpen), "breaker_open");
  EXPECT_EQ(to_string(SubmissionReject::kRetryBudgetExhausted),
            "retry_budget");
}

// --- RetryBudget -----------------------------------------------------------

TEST(RetryBudgetTest, StartsAtInitialAndWithdrawsWholeTokens) {
  RetryBudgetConfig config;
  config.initial = 3;
  config.cap = 10;
  RetryBudget budget(config);
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_EQ(budget.available(), 0u);
  EXPECT_FALSE(budget.try_withdraw());
  EXPECT_EQ(budget.withdrawals(), 3u);
  EXPECT_EQ(budget.denials(), 1u);
}

TEST(RetryBudgetTest, DepositsFundFutureWithdrawals) {
  RetryBudgetConfig config;
  config.initial = 0;
  config.deposit_per_request = 0.1;
  RetryBudget budget(config);
  EXPECT_FALSE(budget.try_withdraw());
  for (int i = 0; i < 9; ++i) {
    budget.deposit();
  }
  EXPECT_FALSE(budget.try_withdraw()) << "0.9 tokens is not a whole token";
  budget.deposit();
  EXPECT_EQ(budget.available(), 1u);
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_FALSE(budget.try_withdraw());
}

TEST(RetryBudgetTest, InitialAndDepositsClampToCap) {
  RetryBudgetConfig config;
  config.initial = 100;
  config.cap = 4;
  config.deposit_per_request = 1.0;
  RetryBudget budget(config);
  EXPECT_EQ(budget.available(), 4u) << "initial clamps to cap";
  for (int i = 0; i < 50; ++i) {
    budget.deposit();
  }
  EXPECT_EQ(budget.available(), 4u) << "deposits never exceed cap";
}

TEST(RetryBudgetTest, ConcurrentDepositsAndWithdrawalsStayConsistent) {
  RetryBudgetConfig config;
  config.initial = 0;
  config.cap = 1u << 20;
  config.deposit_per_request = 1.0;
  RetryBudget budget(config);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        budget.deposit();
        (void)budget.try_withdraw();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every deposit adds exactly one token and every successful withdrawal
  // removes exactly one: the final balance must equal the difference.
  const std::uint64_t deposited = kThreads * kOpsPerThread;
  EXPECT_EQ(budget.available(), deposited - budget.withdrawals());
  EXPECT_EQ(budget.withdrawals() + budget.denials(), deposited);
}

// --- CircuitBreaker --------------------------------------------------------

CircuitBreakerConfig small_breaker() {
  CircuitBreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.failure_rate = 0.5;
  config.cooldown_base = 100;
  config.cooldown_cap = 1000;
  config.half_open_probes = 2;
  return config;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  CircuitBreaker breaker(small_breaker());
  util::Xoshiro256 rng(1);
  // Three straight failures: 100% failure rate but below min_samples.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow(0, rng));
    breaker.on_failure(0, rng);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opens, 0u);
}

TEST(CircuitBreakerTest, OpensAtFailureRateAndBlocksDuringCooldown) {
  CircuitBreaker breaker(small_breaker());
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 4; ++i) {
    breaker.on_failure(0, rng);
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_FALSE(breaker.allow(0, rng)) << "cooldown has not elapsed";
  EXPECT_GT(breaker.open_until(), 0);
  EXPECT_LE(breaker.open_until(), small_breaker().cooldown_base)
      << "first cooldown draws from (0, base]";
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseAfterSuccesses) {
  CircuitBreaker breaker(small_breaker());
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 4; ++i) {
    breaker.on_failure(0, rng);
  }
  const util::Nanos after = breaker.open_until();
  EXPECT_TRUE(breaker.allow(after, rng)) << "cooldown elapsed: probe admitted";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.stats().probe_rounds, 1u);
  breaker.on_success(after);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen)
      << "one probe success is not enough";
  breaker.on_success(after);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A fresh window: one failure must not re-open.
  breaker.on_failure(after, rng);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  CircuitBreaker breaker(small_breaker());
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 4; ++i) {
    breaker.on_failure(0, rng);
  }
  const util::Nanos after = breaker.open_until();
  ASSERT_TRUE(breaker.allow(after, rng));
  breaker.on_failure(after, rng);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);
  EXPECT_GT(breaker.open_until(), after);
}

TEST(CircuitBreakerTest, ConsecutiveReopensBackOffUpToCap) {
  // Each re-open draws its cooldown from a doubling window. The ceiling
  // is the provable bound: open_until - now <= min(cap, base * 2^(k-1)).
  CircuitBreakerConfig config = small_breaker();
  CircuitBreaker breaker(config);
  util::Xoshiro256 rng(7);
  const util::Backoff backoff{
      util::BackoffPolicy{config.cooldown_base, config.cooldown_cap}};
  for (int i = 0; i < 4; ++i) {
    breaker.on_failure(0, rng);
  }
  util::Nanos now = 0;
  for (std::size_t streak = 1; streak <= 10; ++streak) {
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    const util::Nanos cooldown = breaker.open_until() - now;
    EXPECT_GE(cooldown, 1);
    EXPECT_LE(cooldown, backoff.ceiling(streak)) << "streak " << streak;
    now = breaker.open_until();
    ASSERT_TRUE(breaker.allow(now, rng)) << "streak " << streak;
    breaker.on_failure(now, rng);  // failed probe: re-open, longer window
  }
  EXPECT_EQ(breaker.stats().opens, 11u);
}

TEST(CircuitBreakerTest, WindowEvictsOldOutcomes) {
  CircuitBreakerConfig config = small_breaker();
  config.window = 4;
  config.min_samples = 4;
  CircuitBreaker breaker(config);
  util::Xoshiro256 rng(1);
  // Two failures, then enough successes to push them out of the window.
  breaker.on_failure(0, rng);
  breaker.on_failure(0, rng);
  for (int i = 0; i < 4; ++i) {
    breaker.on_success(0);
  }
  // Window now holds 4 successes; one more failure is 25% < 50%.
  breaker.on_failure(0, rng);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StateToString) {
  EXPECT_EQ(to_string(CircuitBreaker::State::kClosed), "closed");
  EXPECT_EQ(to_string(CircuitBreaker::State::kOpen), "open");
  EXPECT_EQ(to_string(CircuitBreaker::State::kHalfOpen), "half_open");
}

// --- SharedTaskQueue -------------------------------------------------------

#ifdef NDEBUG
TEST(SharedTaskQueueTest, ZeroCapacityThrows) {
  EXPECT_THROW(SharedTaskQueue queue(0), std::invalid_argument);
}
#else
TEST(SharedTaskQueueDeathTest, ZeroCapacityAsserts) {
  EXPECT_DEATH(SharedTaskQueue queue(0), "capacity");
}
#endif

TEST(SharedTaskQueueTest, TryPushRefusesWhenFull) {
  SharedTaskQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  Submission task;
  task.seq = 1;
  EXPECT_TRUE(queue.try_push(task));
  task.seq = 2;
  EXPECT_TRUE(queue.try_push(task));
  task.seq = 3;
  EXPECT_FALSE(queue.try_push(task)) << "queue is at capacity";
  EXPECT_EQ(queue.size(), 2u);
  // Popping frees a slot; try_push succeeds again and FIFO order holds.
  Submission out;
  ASSERT_TRUE(queue.wait_pop(out));
  EXPECT_EQ(out.seq, 1u);
  EXPECT_TRUE(queue.try_push(task));
  ASSERT_TRUE(queue.wait_pop(out));
  EXPECT_EQ(out.seq, 2u);
  ASSERT_TRUE(queue.wait_pop(out));
  EXPECT_EQ(out.seq, 3u);
}

TEST(SharedTaskQueueTest, TryPushRefusesAfterClose) {
  SharedTaskQueue queue(4);
  queue.close();
  Submission task;
  EXPECT_FALSE(queue.try_push(task));
  EXPECT_TRUE(queue.empty());
}

// --- Deadline propagation through a one-host cluster ------------------------

class AdmissionPlatformTest : public ::testing::Test {
 protected:
  static PlatformConfig make_config() {
    PlatformConfig config;
    config.num_cpus = 4;
    return config;
  }

  static FunctionSpec filter_spec() {
    FunctionSpec spec;
    spec.name = "filter";
    spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    spec.sandbox.name = "filter-sb";
    spec.sandbox.num_vcpus = 1;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    return spec;
  }

  static FunctionId add_filter(Platform& platform) {
    return *platform.registry().add(filter_spec());
  }

  /// One host, two workers, front-door admission off: a deadline is
  /// checked only where the host's dispatcher dequeues the task.
  static cluster::ClusterConfig one_host_without_admission() {
    cluster::ClusterConfig config;
    config.num_hosts = 1;
    config.workers_per_host = 2;
    config.admission.enabled = false;
    config.platform = make_config();
    return config;
  }

  static workloads::Request filter_request() {
    workloads::Request request;
    request.payload = {5, 10, 15};
    request.threshold = 7;
    return request;
  }
};

TEST_F(AdmissionPlatformTest, DispatcherPropagatesDeadlineToTypedReject) {
  cluster::ClusterScheduler cluster(one_host_without_admission());
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  cluster.submit(*filter, filter_request(), StartMode::kCold, /*deadline=*/1);
  cluster.submit(*filter, filter_request(), StartMode::kCold, /*deadline=*/0);
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  int expired = 0;
  int completed = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.reject == SubmissionReject::kDeadlineExpired) {
      ++expired;
      EXPECT_EQ(outcome.status.code(), util::StatusCode::kDeadlineExceeded);
    } else {
      ++completed;
      EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
      EXPECT_EQ(outcome.reject, SubmissionReject::kNone);
    }
  }
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(cluster.host(0).platform().counters().deadline_rejections, 0u)
      << "dispatcher expires at dequeue; the platform gate never sees it";
}

TEST_F(AdmissionPlatformTest, FarFutureDeadlineCompletesNormally) {
  cluster::ClusterScheduler cluster(one_host_without_admission());
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  const util::Nanos deadline = util::monotonic_now() + 60'000'000'000;
  for (int i = 0; i < 10; ++i) {
    cluster.submit(*filter, filter_request(), StartMode::kCold, deadline);
  }
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 10u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
    EXPECT_EQ(outcome.reject, SubmissionReject::kNone);
  }
}

TEST_F(AdmissionPlatformTest, DeadlinePreCheckRejectsAtInvoke) {
  Platform platform(make_config());
  const FunctionId filter = add_filter(platform);
  InvokeControls controls;
  controls.now = 100;
  controls.deadline = 50;  // already past
  const auto result =
      platform.invoke(filter, filter_request(), StartMode::kCold, controls);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controls.reject, SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(platform.counters().deadline_rejections, 1u);
}

// --- Platform shard high-water ---------------------------------------------

/// A function whose invoke() blocks until released — the deterministic way
/// to hold a shard's in-flight count up while a second caller arrives.
class BlockingFunction final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "blocking";
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kCategory3;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return 100;
  }
  workloads::Response invoke(const workloads::Request&) override {
    std::unique_lock lock(mutex_);
    entered_ = true;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [this] { return released_; });
    workloads::Response response;
    response.checksum = 1;
    return response;
  }

  void wait_entered() {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST_F(AdmissionPlatformTest, ShardHighWaterRejectsWhileSaturated) {
  PlatformConfig config = make_config();
  config.admission.shard_high_water = 1;
  Platform platform(config);

  auto blocking = std::make_shared<BlockingFunction>();
  FunctionSpec spec;
  spec.name = "blocking";
  spec.implementation = blocking;
  spec.sandbox.name = "blocking-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const FunctionId function = *platform.registry().add(std::move(spec));

  std::thread holder([&platform, function] {
    const auto result = platform.invoke(function, workloads::Request{},
                                        StartMode::kCold);
    EXPECT_TRUE(result.has_value()) << result.status().to_report();
  });
  blocking->wait_entered();  // the shard now has one in-flight invocation

  InvokeControls controls;
  controls.now = util::monotonic_now();
  const auto rejected =
      platform.invoke(function, workloads::Request{}, StartMode::kCold,
                      controls);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(controls.reject, SubmissionReject::kShardOverload);

  blocking->release();
  holder.join();
  // counters() takes every shard lock, so it must wait until the holder
  // (blocked inside the function body, shard lock held) has finished.
  EXPECT_EQ(platform.counters().shard_overload_rejections, 1u);

  // With the shard drained, the same invoke is admitted again.
  InvokeControls retry;
  retry.now = util::monotonic_now();
  const auto admitted = platform.invoke(function, workloads::Request{},
                                        StartMode::kCold, retry);
  EXPECT_TRUE(admitted.has_value()) << admitted.status().to_report();
  EXPECT_EQ(retry.reject, SubmissionReject::kNone);
}

TEST_F(AdmissionPlatformTest, BreakerAccessorsDefaultClosed) {
  Platform platform(make_config());
  const FunctionId filter = add_filter(platform);
  EXPECT_EQ(platform.breaker_state(filter), CircuitBreaker::State::kClosed);
  const auto stats = platform.breaker_stats(filter);
  EXPECT_EQ(stats.opens, 0u);
  EXPECT_EQ(stats.probe_rounds, 0u);
  EXPECT_EQ(stats.stuck_open, 0u);
  // Admission gates are off by default: counters stay zero after traffic.
  const auto result =
      platform.invoke(filter, filter_request(), StartMode::kCold);
  ASSERT_TRUE(result.has_value());
  const auto counters = platform.counters();
  EXPECT_EQ(counters.shard_overload_rejections, 0u);
  EXPECT_EQ(counters.breaker_rejections, 0u);
  EXPECT_EQ(counters.breaker_opens, 0u);
  EXPECT_EQ(counters.budget_denied_escalations, 0u);
}

}  // namespace
}  // namespace horse::faas
