// kHorse invokes racing keep-alive expiry, in the shape of the azure_open
// workload: two client threads resume sandboxes of disjoint uLL functions
// whose nodes share two reserved queues, while a third thread keeps
// advancing the logical clock past the keep-alive window (every pooled
// sandbox expires and is destroyed, retiring its 𝒫²𝒮ℳ node), re-fills the
// pools with kRestore invokes (node birth at the first pause) and reads
// the manager's reporting calls, which walk the node registry.
//
// Under TSan/ASan this is the check that node birth, in-place re-tracking,
// lock-free untrack and destroy-time retirement never race a reporting
// read or a resume; the accounting asserts catch lost or double-counted
// invocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "faas/platform.hpp"
#include "workloads/array_filter.hpp"

namespace horse::faas {
namespace {

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {3, 9, 27, 81};
  request.threshold = 10;
  return request;
}

TEST(UllExpiryStressTest, HorseInvokesRaceExpiryAndRestore) {
  constexpr util::Nanos kKeepAlive = util::kMillisecond;
  constexpr int kInvokesPerClient = 4000;
  constexpr int kExpiryRounds = 150;

  PlatformConfig config;
  config.num_cpus = 8;
  config.horse.num_ull_runqueues = 2;
  config.warm_pool.keep_alive = kKeepAlive;
  Platform platform(config);
  std::vector<FunctionId> functions;
  for (std::uint32_t vcpus : {2u, 3u}) {
    FunctionSpec spec;
    spec.name = "ull-filter-" + std::to_string(vcpus);
    spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    spec.sandbox.name = spec.name;
    spec.sandbox.num_vcpus = vcpus;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    functions.push_back(*platform.registry().add(std::move(spec)));
  }
  ASSERT_NE(platform.shard_of(functions[0]), platform.shard_of(functions[1]));
  for (const FunctionId id : functions) {
    ASSERT_TRUE(platform.invoke(id, filter_request(), StartMode::kRestore)
                    .has_value());
  }

  const std::vector<std::int32_t> expected{2, 3};
  std::atomic<int> wrong{0};
  std::atomic<int> failed{0};
  std::atomic<bool> clients_done{false};
  const auto check = [&](const util::Expected<InvocationRecord>& record) {
    if (!record.has_value()) {
      failed.fetch_add(1);
    } else if (record->response.indexes != expected) {
      wrong.fetch_add(1);
    }
  };

  std::vector<std::thread> clients;
  for (const FunctionId id : functions) {
    clients.emplace_back([&platform, &check, id] {
      for (int i = 0; i < kInvokesPerClient; ++i) {
        check(platform.invoke(id, filter_request(), StartMode::kHorse));
      }
    });
  }
  std::thread expiry([&] {
    for (int round = 0;
         round < kExpiryRounds || !clients_done.load(std::memory_order_acquire);
         ++round) {
      platform.advance_time(2 * kKeepAlive);
      for (const FunctionId id : functions) {
        check(platform.invoke(id, filter_request(), StartMode::kRestore));
      }
      const ControlPlaneSnapshot plane = platform.control_plane_snapshot();
      std::size_t paused = 0;
      for (const auto& queue : plane.ull.occupancy) {
        paused += queue.paused;
      }
      // At most two pools at their 64-sandbox cap; a double release
      // would wrap a counter far past this.
      EXPECT_LE(paused, 2u * 64);
      (void)platform.ull_manager().total_index_bytes();
    }
  });
  for (auto& client : clients) {
    client.join();
  }
  clients_done.store(true, std::memory_order_release);
  expiry.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.cold + counters.restore + counters.warm + counters.horse,
            counters.invocations);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_GT(counters.horse, 0u);
  EXPECT_GT(counters.restore, static_cast<std::uint64_t>(2 * kExpiryRounds));
  EXPECT_EQ(platform.resume_degradation_stats().fallback_merges, 0u);

  // Quiescent: the registry walk agrees with the pools.
  std::size_t pooled = 0;
  platform.warm_pool().for_each(
      [&pooled](FunctionId, const vmm::Sandbox&) { ++pooled; });
  EXPECT_EQ(platform.ull_manager().tracked_count(), pooled);
  std::size_t assigned = 0;
  for (const auto& queue : platform.ull_manager().snapshot().occupancy) {
    assigned += queue.paused;
  }
  EXPECT_EQ(assigned, pooled);
}

}  // namespace
}  // namespace horse::faas
