#include "core/adaptive_ull.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/horse_resume.hpp"

namespace horse::core {
namespace {

class AdaptiveUllTest : public ::testing::Test {
 protected:
  AdaptiveUllTest() : topology_(16), manager_(topology_, HorseConfig{}) {}

  sched::CpuTopology topology_;
  UllRunQueueManager manager_;
};

TEST_F(AdaptiveUllTest, ParamsValidate) {
  AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.grow_threshold = 0.3;
  params.shrink_threshold = 0.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = {};
  params.ewma_alpha = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST_F(AdaptiveUllTest, GrowReservesNextCpuDown) {
  EXPECT_EQ(manager_.ull_cpus(), (std::vector<sched::CpuId>{15}));
  ASSERT_TRUE(manager_.grow().is_ok());
  EXPECT_EQ(manager_.ull_cpus(), (std::vector<sched::CpuId>{15, 14}));
  EXPECT_TRUE(topology_.is_reserved(14));
}

TEST_F(AdaptiveUllTest, ShrinkReleasesLastQueue) {
  ASSERT_TRUE(manager_.grow().is_ok());
  ASSERT_TRUE(manager_.shrink().is_ok());
  EXPECT_EQ(manager_.ull_cpus().size(), 1u);
  EXPECT_FALSE(topology_.is_reserved(14));
}

TEST_F(AdaptiveUllTest, ShrinkBelowOneFails) {
  EXPECT_EQ(manager_.shrink().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(AdaptiveUllTest, ShrinkBlockedByAssignedSandbox) {
  ASSERT_TRUE(manager_.grow().is_ok());
  // Pause a sandbox; balancing assigns it to the new (emptier) queue 14.
  vmm::SandboxConfig config;
  config.name = "ull";
  config.num_vcpus = 1;
  config.memory_mb = 1;
  config.ull = true;
  vmm::Sandbox sandbox(1, config);
  const auto cpu = manager_.assign(sandbox);
  if (cpu == 14) {
    EXPECT_EQ(manager_.shrink().code(), util::StatusCode::kFailedPrecondition);
  }
  manager_.untrack(sandbox);
  EXPECT_TRUE(manager_.shrink().is_ok());
}

TEST_F(AdaptiveUllTest, GrowStopsBeforeConsumingAllCpus) {
  util::Status status;
  int grown = 0;
  while ((status = manager_.grow()).is_ok()) {
    ++grown;
    ASSERT_LT(grown, 16);
  }
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  // At least one general CPU must survive.
  EXPECT_NO_THROW((void)topology_.least_loaded_general());
}

TEST_F(AdaptiveUllTest, ScalerGrowsUnderSustainedHighRate) {
  AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 1000.0;
  params.max_queues = 4;
  AdaptiveUllScaler scaler(manager_, params);
  // 900 triggers/s against a 1000/s single queue: above the 0.8 threshold.
  std::size_t queues = 1;
  for (int i = 0; i < 10; ++i) {
    queues = scaler.observe(900, util::kSecond);
  }
  EXPECT_GT(queues, 1u);
  EXPECT_GT(scaler.grows(), 0u);
  EXPECT_NEAR(scaler.rate_estimate(), 900.0, 1.0);
}

TEST_F(AdaptiveUllTest, ScalerShrinksWhenQuiet) {
  AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 1000.0;
  params.max_queues = 4;
  AdaptiveUllScaler scaler(manager_, params);
  for (int i = 0; i < 10; ++i) {
    (void)scaler.observe(1700, util::kSecond);  // forces 2+ queues
  }
  const std::size_t peak = manager_.ull_cpus().size();
  ASSERT_GT(peak, 1u);
  for (int i = 0; i < 20; ++i) {
    (void)scaler.observe(10, util::kSecond);  // traffic collapses
  }
  EXPECT_EQ(manager_.ull_cpus().size(), 1u);
  EXPECT_GT(scaler.shrinks(), 0u);
}

TEST_F(AdaptiveUllTest, ScalerHysteresisAvoidsFlapping) {
  AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 1000.0;
  params.max_queues = 4;
  AdaptiveUllScaler scaler(manager_, params);
  // Rate right between thresholds for 2 queues after one grow:
  // 900/s grows to 2 queues (cap 2000); shrink would need < 0.4*1000=400.
  for (int i = 0; i < 30; ++i) {
    (void)scaler.observe(900, util::kSecond);
  }
  EXPECT_EQ(manager_.ull_cpus().size(), 2u);
  EXPECT_EQ(scaler.grows(), 1u);
  EXPECT_EQ(scaler.shrinks(), 0u);
}

TEST_F(AdaptiveUllTest, ScalerRespectsMaxQueues) {
  AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 10.0;
  params.max_queues = 3;
  AdaptiveUllScaler scaler(manager_, params);
  for (int i = 0; i < 50; ++i) {
    (void)scaler.observe(100'000, util::kSecond);
  }
  EXPECT_EQ(manager_.ull_cpus().size(), 3u);
}

TEST_F(AdaptiveUllTest, ZeroWindowIgnored) {
  AdaptiveUllScaler scaler(manager_);
  EXPECT_EQ(scaler.observe(100, 0), 1u);
  EXPECT_EQ(scaler.rate_estimate(), 0.0);
}

TEST_F(AdaptiveUllTest, HorseEngineWorksAcrossGrownQueues) {
  // End-to-end: grow to 2 queues, pause/resume sandboxes that land on
  // both, verify isolation still holds.
  sched::CpuTopology topology(8);
  HorseConfig config;
  config.num_ull_runqueues = 2;
  HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(), config);

  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  for (int i = 0; i < 4; ++i) {
    vmm::SandboxConfig sandbox_config;
    sandbox_config.name = "ull";
    sandbox_config.num_vcpus = 2;
    sandbox_config.memory_mb = 1;
    sandbox_config.ull = true;
    auto sandbox = std::make_unique<vmm::Sandbox>(50 + i, sandbox_config);
    ASSERT_TRUE(engine.start(*sandbox).is_ok());
    ASSERT_TRUE(engine.pause(*sandbox).is_ok());
    sandboxes.push_back(std::move(sandbox));
  }
  for (auto& sandbox : sandboxes) {
    (void)engine.ull_manager().refresh();
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

}  // namespace
}  // namespace horse::core
