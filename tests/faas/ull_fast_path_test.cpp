// The warm invoke takes no ull-manager lock. A paused uLL sandbox carries
// its own reserved-queue slot and 𝒫²𝒮ℳ node, so warm kHorse and kWarm
// invokes reach the manager only through lock-free reads, per-queue
// atomics and the queue lock step ④ already holds. Reporting walks the
// manager's node registry instead of id-keyed maps; its numbers must match
// a brute-force recount over the pooled sandboxes.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>

#include "faas/platform.hpp"
#include "workloads/array_filter.hpp"

namespace horse::faas {
namespace {

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {1, 5, 10};
  request.threshold = 4;
  return request;
}

class UllFastPathTest : public ::testing::Test {
 protected:
  UllFastPathTest() : platform_(make_config()) {
    ull_id_ = add("ull-filter", /*ull=*/true, 2);
    plain_id_ = add("plain-filter", /*ull=*/false, 1);
    EXPECT_TRUE(platform_.provision(ull_id_, 4).is_ok());
    EXPECT_TRUE(platform_.provision(plain_id_, 2).is_ok());
    // Warm-up: every mode the gate measures has run once.
    for (const auto& [id, mode] : {std::pair{ull_id_, StartMode::kHorse},
                                   std::pair{ull_id_, StartMode::kWarm},
                                   std::pair{plain_id_, StartMode::kWarm}}) {
      EXPECT_TRUE(platform_.invoke(id, filter_request(), mode).has_value());
    }
  }

  static PlatformConfig make_config() {
    PlatformConfig config;
    config.num_cpus = 8;
    config.horse.num_ull_runqueues = 2;
    return config;
  }

  FunctionId add(const char* name, bool ull, std::uint32_t vcpus) {
    FunctionSpec spec;
    spec.name = name;
    spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    spec.sandbox.name = name;
    spec.sandbox.num_vcpus = vcpus;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = ull;
    return *platform_.registry().add(std::move(spec));
  }

  void invoke_n(FunctionId id, StartMode mode, int count) {
    for (int i = 0; i < count; ++i) {
      const auto record = platform_.invoke(id, filter_request(), mode);
      ASSERT_TRUE(record.has_value()) << record.status().to_report();
      ASSERT_EQ(record->mode, mode);
      ASSERT_EQ(record->response.indexes, (std::vector<std::int32_t>{1, 2}));
      ASSERT_TRUE(record->repooled);
    }
  }

  Platform platform_;
  FunctionId ull_id_ = 0;
  FunctionId plain_id_ = 0;
};

TEST_F(UllFastPathTest, WarmInvokesTakeNoManagerLock) {
  core::UllRunQueueManager& manager = platform_.ull_manager();
  const std::uint64_t snapshot_before =
      platform_.control_plane_snapshot().ull.contention.acquisitions;
  const std::uint64_t meter_before = manager.contention().acquisitions;

  invoke_n(ull_id_, StartMode::kHorse, 1000);
  invoke_n(plain_id_, StartMode::kWarm, 1000);
  invoke_n(ull_id_, StartMode::kWarm, 1000);

  // The meter alone: nothing on the warm path acquired the mutex.
  EXPECT_EQ(manager.contention().acquisitions, meter_before);
  // Through the snapshot: exactly its own acquisition.
  EXPECT_EQ(platform_.control_plane_snapshot().ull.contention.acquisitions,
            snapshot_before + 1);
  EXPECT_EQ(platform_.resume_degradation_stats().fallback_merges, 0u);
}

TEST_F(UllFastPathTest, ReportingMatchesBruteForceRecount) {
  invoke_n(ull_id_, StartMode::kHorse, 200);
  invoke_n(ull_id_, StartMode::kWarm, 50);
  invoke_n(plain_id_, StartMode::kWarm, 50);

  const core::UllRunQueueManager& manager = platform_.ull_manager();
  std::size_t tracked = 0;
  std::size_t bytes = 0;
  std::map<sched::CpuId, std::size_t> per_queue;
  platform_.warm_pool().for_each(
      [&](FunctionId, const vmm::Sandbox& sandbox) {
        const core::P2smIndex* index = manager.index_of(sandbox);
        const auto cpu = manager.assignment(sandbox);
        if (!sandbox.config().ull) {
          EXPECT_EQ(index, nullptr);
          EXPECT_FALSE(cpu.has_value());
          return;
        }
        ASSERT_NE(index, nullptr);
        ASSERT_TRUE(cpu.has_value());
        ++tracked;
        bytes += index->memory_bytes() + sizeof(core::TrackedNode);
        ++per_queue[*cpu];
      });

  EXPECT_EQ(tracked, 4u);
  EXPECT_EQ(manager.tracked_count(), tracked);
  EXPECT_EQ(manager.total_index_bytes(), bytes);
  const auto snapshot = manager.snapshot();
  EXPECT_EQ(snapshot.tracked, tracked);
  ASSERT_EQ(snapshot.occupancy.size(), 2u);
  for (const core::UllQueueOccupancy& queue : snapshot.occupancy) {
    EXPECT_EQ(queue.paused, per_queue[queue.cpu]) << "cpu " << queue.cpu;
  }
}

}  // namespace
}  // namespace horse::faas
