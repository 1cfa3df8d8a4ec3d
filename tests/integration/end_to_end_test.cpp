// Cross-module integration: the full platform serving the paper's three
// uLL workloads and the thumbnail function, through all four start
// strategies, with trace-driven arrival sequences.
#include <gtest/gtest.h>

#include <memory>

#include "faas/colocation.hpp"
#include "faas/platform.hpp"
#include "sim/cost_model.hpp"
#include "support/sanitizers.hpp"
#include "trace/synthetic.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/firewall.hpp"
#include "workloads/nat.hpp"
#include "workloads/thumbnail.hpp"

namespace horse {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : platform_(config()) {
    firewall_ = add("firewall", std::make_shared<workloads::FirewallFunction>(256),
                    /*vcpus=*/1, /*ull=*/true);
    nat_ = add("nat", std::make_shared<workloads::NatFunction>(64), 1, true);
    filter_ = add("filter", std::make_shared<workloads::ArrayFilterFunction>(),
                  1, true);
    thumbnail_ = add("thumbnail",
                     std::make_shared<workloads::ThumbnailFunction>(64, 8), 2,
                     false);
  }

  static faas::PlatformConfig config() {
    faas::PlatformConfig config;
    config.num_cpus = 6;
    return config;
  }

  faas::FunctionId add(const std::string& name,
                       std::shared_ptr<workloads::Function> impl,
                       std::uint32_t vcpus, bool ull) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.implementation = std::move(impl);
    spec.sandbox.name = name + "-sb";
    spec.sandbox.num_vcpus = vcpus;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = ull;
    return *platform_.registry().add(std::move(spec));
  }

  static workloads::Request packet_request() {
    workloads::Request request;
    request.header = "src=10.0.0.1 dst=10.0.0.2 port=80 proto=tcp";
    return request;
  }

  faas::Platform platform_;
  faas::FunctionId firewall_ = 0, nat_ = 0, filter_ = 0, thumbnail_ = 0;
};

TEST_F(EndToEndTest, AllWorkloadsRunOnAllStrategies) {
  ASSERT_TRUE(platform_.provision(firewall_, 1).is_ok());
  ASSERT_TRUE(platform_.provision(nat_, 1).is_ok());
  ASSERT_TRUE(platform_.provision(filter_, 1).is_ok());
  ASSERT_TRUE(platform_.provision(thumbnail_, 1).is_ok());

  workloads::Request filter_request;
  filter_request.payload = workloads::ArrayFilterFunction::default_payload();
  filter_request.threshold = 500'000;

  for (const auto mode : {faas::StartMode::kCold, faas::StartMode::kRestore,
                          faas::StartMode::kWarm, faas::StartMode::kHorse}) {
    ASSERT_TRUE(platform_.invoke(firewall_, packet_request(), mode).has_value())
        << to_string(mode);
    ASSERT_TRUE(platform_.invoke(nat_, packet_request(), mode).has_value());
    ASSERT_TRUE(platform_.invoke(filter_, filter_request, mode).has_value());
    workloads::Request thumb_request;
    thumb_request.threshold = 2;
    ASSERT_TRUE(platform_.invoke(thumbnail_, thumb_request, mode).has_value());
  }
}

TEST_F(EndToEndTest, InitFractionOrderingMatchesFigure1) {
  // For each uLL workload, init share of the pipeline must rank
  // cold > restore > warm — the premise of Figure 1.
  ASSERT_TRUE(platform_.provision(filter_, 1).is_ok());
  workloads::Request request;
  request.payload = workloads::ArrayFilterFunction::default_payload();
  request.threshold = 500'000;

  const auto cold = platform_.invoke(filter_, request, faas::StartMode::kCold);
  const auto restore =
      platform_.invoke(filter_, request, faas::StartMode::kRestore);
  const auto warm = platform_.invoke(filter_, request, faas::StartMode::kWarm);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(restore.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_GT(cold->init_fraction(), restore->init_fraction());
  EXPECT_GT(restore->init_fraction(), warm->init_fraction());
  EXPECT_GT(cold->init_fraction(), 0.99);  // Table 1: 99.99%
}

TEST_F(EndToEndTest, HorseBeatsWarmInitTimeOverManyTriggers) {
  HORSE_SKIP_TIMING_UNDER_SANITIZERS();
  ASSERT_TRUE(platform_.provision(nat_, 2).is_ok());
  util::Nanos warm_best = std::numeric_limits<util::Nanos>::max();
  util::Nanos horse_best = std::numeric_limits<util::Nanos>::max();
  for (int i = 0; i < 50; ++i) {
    const auto warm =
        platform_.invoke(nat_, packet_request(), faas::StartMode::kWarm);
    ASSERT_TRUE(warm.has_value());
    warm_best = std::min(warm_best, warm->init_time);
    const auto fast =
        platform_.invoke(nat_, packet_request(), faas::StartMode::kHorse);
    ASSERT_TRUE(fast.has_value());
    horse_best = std::min(horse_best, fast->init_time);
  }
  EXPECT_LT(horse_best, warm_best);
}

TEST_F(EndToEndTest, TraceDrivenInvocationSequence) {
  // Replay a synthetic Azure window against the platform: every arrival
  // becomes a warm (or HORSE) invocation depending on the uLL flag.
  ASSERT_TRUE(platform_.provision(firewall_, 1).is_ok());
  ASSERT_TRUE(platform_.provision(thumbnail_, 1).is_ok());

  trace::SyntheticTraceParams params;
  params.num_functions = 2;
  params.num_minutes = 1;
  params.top_rate_per_minute = 30.0;
  params.seed = 5;
  const auto schedule = trace::SyntheticAzureTrace(params).generate_schedule();
  ASSERT_GT(schedule.size(), 0u);

  int invoked = 0;
  util::Nanos last = 0;
  for (const auto& arrival : schedule.arrivals()) {
    platform_.advance_time(arrival.time - last);
    last = arrival.time;
    const bool ull = arrival.function_id % 2 == 0;
    const auto id = ull ? firewall_ : thumbnail_;
    const auto mode = ull ? faas::StartMode::kHorse : faas::StartMode::kWarm;
    workloads::Request request =
        ull ? packet_request() : workloads::Request{};
    const auto record = platform_.invoke(id, request, mode);
    ASSERT_TRUE(record.has_value()) << record.status().to_report();
    ++invoked;
  }
  EXPECT_EQ(invoked, static_cast<int>(schedule.size()));
}

TEST_F(EndToEndTest, ColocationSimUsesCalibratedCosts) {
  // The two planes compose: calibrate the cost model from the real
  // engines (fast settings), then drive the colocation sim with it.
  const auto costs =
      sim::CostModel::calibrate(vmm::VmmProfile::firecracker(), 3);
  faas::ColocationParams params;
  params.mode = faas::ColocationMode::kHorse;
  params.ull_vcpus = 8;
  params.duration = 3 * util::kSecond;
  faas::ColocationExperiment experiment(params, costs);
  const auto result = experiment.run();
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.p99_ns, 0.0);
}

TEST_F(EndToEndTest, XenProfilePlatformWorks) {
  faas::PlatformConfig config;
  config.num_cpus = 4;
  config.profile = vmm::VmmProfile::xen();
  faas::Platform xen_platform(config);
  faas::FunctionSpec spec;
  spec.name = "nat";
  spec.implementation = std::make_shared<workloads::NatFunction>(16);
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const auto id = *xen_platform.registry().add(std::move(spec));
  ASSERT_TRUE(xen_platform.provision(id, 1).is_ok());
  const auto record =
      xen_platform.invoke(id, packet_request(), faas::StartMode::kHorse);
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->init_time, 0);
}

}  // namespace
}  // namespace horse
