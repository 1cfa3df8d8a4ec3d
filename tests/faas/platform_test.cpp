#include "faas/platform.hpp"

#include <gtest/gtest.h>

#include "support/sanitizers.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/firewall.hpp"

namespace horse::faas {
namespace {

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest() : platform_(make_config()) {
    FunctionSpec ull_spec;
    ull_spec.name = "filter";
    ull_spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    ull_spec.sandbox.name = "filter-sb";
    ull_spec.sandbox.num_vcpus = 1;
    ull_spec.sandbox.memory_mb = 1;
    ull_spec.sandbox.ull = true;
    ull_id_ = *platform_.registry().add(std::move(ull_spec));

    FunctionSpec plain_spec;
    plain_spec.name = "firewall";
    plain_spec.implementation =
        std::make_shared<workloads::FirewallFunction>(64);
    plain_spec.sandbox.name = "firewall-sb";
    plain_spec.sandbox.num_vcpus = 2;
    plain_spec.sandbox.memory_mb = 1;
    plain_id_ = *platform_.registry().add(std::move(plain_spec));
  }

  static PlatformConfig make_config() {
    PlatformConfig config;
    config.num_cpus = 4;
    return config;
  }

  static workloads::Request filter_request() {
    workloads::Request request;
    request.payload = {1, 5, 10};
    request.threshold = 4;
    return request;
  }

  Platform platform_;
  FunctionId ull_id_ = 0;
  FunctionId plain_id_ = 0;
};

TEST_F(PlatformTest, ColdStartRunsFunction) {
  const auto record = platform_.invoke(ull_id_, filter_request(), StartMode::kCold);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->mode, StartMode::kCold);
  EXPECT_EQ(record->response.indexes, (std::vector<std::int32_t>{1, 2}));
  // Cold init is dominated by the modelled 1.5 s boot.
  EXPECT_GT(record->init_time, util::kSecond);
  EXPECT_GT(record->init_modelled, util::kSecond);
  EXPECT_GT(record->init_fraction(), 0.99);
}

TEST_F(PlatformTest, ColdStartLeavesWarmSandboxBehind) {
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kCold)
                  .has_value());
  EXPECT_EQ(platform_.warm_pool().available(ull_id_), 1u);
  // The pooled sandbox now serves a warm start.
  const auto warm = platform_.invoke(ull_id_, filter_request(), StartMode::kWarm);
  ASSERT_TRUE(warm.has_value());
  EXPECT_LT(warm->init_time, util::kMillisecond);
}

TEST_F(PlatformTest, RestoreStartUsesSnapshot) {
  const auto record =
      platform_.invoke(ull_id_, filter_request(), StartMode::kRestore);
  ASSERT_TRUE(record.has_value());
  // Restore is ~1.3 ms modelled + real copy: far below cold, above warm.
  EXPECT_LT(record->init_time, 100 * util::kMillisecond);
  EXPECT_GT(record->init_time, util::kMicrosecond);
}

TEST_F(PlatformTest, WarmWithoutPoolFailsWhenLadderDisabled) {
  // With the degradation ladder off, an empty pool surfaces the raw error.
  PlatformConfig config = make_config();
  config.degradation.enabled = false;
  Platform platform(config);
  FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.name = "filter-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const FunctionId id = *platform.registry().add(std::move(spec));
  const auto record = platform.invoke(id, filter_request(), StartMode::kWarm);
  EXPECT_FALSE(record.has_value());
  EXPECT_EQ(record.status().code(), util::StatusCode::kUnavailable);
}

TEST_F(PlatformTest, WarmWithoutPoolDemotesToColderRung) {
  // Default config: the ladder catches the pool miss and demotes
  // kWarm → kRestore, which succeeds via a fresh snapshot.
  const auto record =
      platform_.invoke(ull_id_, filter_request(), StartMode::kWarm);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->requested, StartMode::kWarm);
  EXPECT_EQ(record->mode, StartMode::kRestore);
  EXPECT_EQ(record->fallbacks, 1u);
  EXPECT_GT(record->retry_backoff, 0);
  const auto counters = platform_.counters();
  EXPECT_EQ(counters.rung_fallbacks, 1u);
  EXPECT_EQ(counters.degraded_invocations, 1u);
  EXPECT_EQ(counters.restore, 1u);  // counted by completion mode
  EXPECT_EQ(counters.warm, 0u);
}

TEST_F(PlatformTest, ProvisionFillsPool) {
  ASSERT_TRUE(platform_.provision(ull_id_, 3).is_ok());
  EXPECT_EQ(platform_.warm_pool().available(ull_id_), 3u);
  EXPECT_EQ(platform_.warm_pool().provisioned_floor(ull_id_), 3u);
}

TEST_F(PlatformTest, HorseStartUsesFastPath) {
  ASSERT_TRUE(platform_.provision(ull_id_, 1).is_ok());
  const auto record =
      platform_.invoke(ull_id_, filter_request(), StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->mode, StartMode::kHorse);
  // No dispatch plumbing on the fast path.
  EXPECT_EQ(record->init_modelled, 0);
  EXPECT_GT(record->resume.total(), 0);
  EXPECT_EQ(record->init_time, record->resume.total());
}

TEST_F(PlatformTest, HorseFasterThanWarmOnAverage) {
  // Compares two *measured* paths; instrumented builds shift their
  // relative cost, so the comparison only means something uninstrumented.
  HORSE_SKIP_TIMING_UNDER_SANITIZERS();
  ASSERT_TRUE(platform_.provision(ull_id_, 1).is_ok());
  util::Nanos warm_total = 0;
  util::Nanos horse_total = 0;
  constexpr int kRounds = 30;
  for (int i = 0; i < kRounds; ++i) {
    const auto warm =
        platform_.invoke(ull_id_, filter_request(), StartMode::kWarm);
    ASSERT_TRUE(warm.has_value());
    warm_total += warm->init_time;
    const auto fast =
        platform_.invoke(ull_id_, filter_request(), StartMode::kHorse);
    ASSERT_TRUE(fast.has_value());
    horse_total += fast->init_time;
  }
  EXPECT_LT(horse_total, warm_total);
}

TEST_F(PlatformTest, RefusedReparkIsReportedOnTheRecord) {
  // Pool capped at one sandbox per function and already full: the cold
  // start's sandbox is refused at re-park and torn down. The body ran, so
  // the call succeeds, and the record says the sandbox was not re-pooled.
  PlatformConfig config = make_config();
  config.warm_pool.max_per_function = 1;
  Platform platform(config);
  FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.name = "filter-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const FunctionId id = *platform.registry().add(std::move(spec));
  ASSERT_TRUE(platform.provision(id, 1).is_ok());

  const auto cold = platform.invoke(id, filter_request(), StartMode::kCold);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->mode, StartMode::kCold);
  EXPECT_EQ(cold->response.indexes, (std::vector<std::int32_t>{1, 2}));
  EXPECT_FALSE(cold->repooled);
  EXPECT_EQ(platform.counters().pool_overflow_destroyed, 1u);
  EXPECT_EQ(platform.ull_manager().tracked_count(), 1u);

  const auto warm = platform.invoke(id, filter_request(), StartMode::kHorse);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->mode, StartMode::kHorse);
  EXPECT_TRUE(warm->repooled);
}

TEST_F(PlatformTest, HorseModeOnNonUllFallsBackToVanilla) {
  ASSERT_TRUE(platform_.provision(plain_id_, 1).is_ok());
  workloads::Request request;
  request.header = "src=1.1.1.1 dst=2.2.2.2 port=80 proto=tcp";
  const auto record = platform_.invoke(plain_id_, request, StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  // Fallback pays the dispatch overhead like a plain warm start.
  EXPECT_GT(record->init_modelled, 0);
}

TEST_F(PlatformTest, RepeatedWarmInvocationsRecyclePool) {
  ASSERT_TRUE(platform_.provision(ull_id_, 2).is_ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kWarm)
                    .has_value());
  }
  EXPECT_EQ(platform_.warm_pool().available(ull_id_), 2u);
}

TEST_F(PlatformTest, UnknownFunctionRejected) {
  const auto record =
      platform_.invoke(999, filter_request(), StartMode::kCold);
  EXPECT_FALSE(record.has_value());
  EXPECT_EQ(record.status().code(), util::StatusCode::kNotFound);
}

TEST_F(PlatformTest, KeepAliveEvictionRespectsFloor) {
  ASSERT_TRUE(platform_.provision(ull_id_, 2).is_ok());
  // Add one more beyond the floor via a cold invocation.
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kCold)
                  .has_value());
  EXPECT_EQ(platform_.warm_pool().available(ull_id_), 3u);
  platform_.advance_time(platform_.config().warm_pool.keep_alive + 1);
  EXPECT_EQ(platform_.warm_pool().available(ull_id_), 2u);  // floor holds
}

TEST_F(PlatformTest, ExecTimeIsMeasuredPositive) {
  const auto record = platform_.invoke(ull_id_, filter_request(), StartMode::kCold);
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->exec_time, 0);
}

TEST_F(PlatformTest, StartModeToString) {
  EXPECT_EQ(to_string(StartMode::kCold), "cold");
  EXPECT_EQ(to_string(StartMode::kRestore), "restore");
  EXPECT_EQ(to_string(StartMode::kWarm), "warm");
  EXPECT_EQ(to_string(StartMode::kHorse), "horse");
}


TEST_F(PlatformTest, CountersTrackInvocationOutcomes) {
  EXPECT_EQ(platform_.counters().invocations, 0u);
  ASSERT_TRUE(platform_.provision(ull_id_, 1).is_ok());
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kCold)
                  .has_value());
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kWarm)
                  .has_value());
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kHorse)
                  .has_value());
  ASSERT_TRUE(platform_.invoke(ull_id_, filter_request(), StartMode::kRestore)
                  .has_value());
  EXPECT_FALSE(platform_.invoke(999, filter_request(), StartMode::kCold)
                   .has_value());
  const auto counters = platform_.counters();
  EXPECT_EQ(counters.invocations, 4u);
  EXPECT_EQ(counters.cold, 1u);
  EXPECT_EQ(counters.warm, 1u);
  EXPECT_EQ(counters.horse, 1u);
  EXPECT_EQ(counters.restore, 1u);
  EXPECT_EQ(counters.failed, 1u);
}

}  // namespace
}  // namespace horse::faas
