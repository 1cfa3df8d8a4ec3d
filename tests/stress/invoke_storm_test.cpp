// Invocation storm: many client threads drive the FULL control-plane
// path (Platform::invoke → shard → engines → pool) concurrently, with
// mixed functions and every StartMode at once — the end-to-end
// counterpart of the engine-level stress tests. What unit tests cannot
// see and these can:
//
//   * shard mutexes really partition the work — invocations of disjoint
//     functions make progress from many threads without corrupting the
//     pool / snapshot / counter state each shard owns;
//   * the ladder runs under contention — a never-provisioned function
//     invoked as kWarm demotes through kRestore (building its snapshot
//     on demand, racing other shards) and still completes;
//   * advance_time (keep-alive eviction walking every shard) can run
//     concurrently with invocations without breaking accounting;
//   * the ull-manager's cross-engine bookkeeping stays consistent: when
//     the dust settles, every tracked sandbox is exactly a pooled uLL
//     sandbox.
//
// Sizes are deliberately modest — this binary also runs under TSan on
// small CI runners; the point is interleaving coverage, not volume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faas/platform.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/nat.hpp"

namespace horse::faas {
namespace {

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {3, 9, 27, 81};
  request.threshold = 10;
  return request;
}

workloads::Request packet_request() {
  workloads::Request request;
  request.header = "src=192.168.1.9 dst=10.1.2.3 port=8080 proto=udp";
  return request;
}

struct StormFunction {
  FunctionId id = 0;
  bool ull = false;
  bool provisioned = false;
};

/// Register `count` functions alternating uLL (NAT) / plain (filter);
/// provision + snapshot each unless `provision` is 0.
std::vector<StormFunction> register_functions(Platform& platform,
                                              std::size_t count,
                                              std::size_t provision) {
  std::vector<StormFunction> functions;
  for (std::size_t i = 0; i < count; ++i) {
    const bool ull = (i % 2) == 0;
    FunctionSpec spec;
    spec.name = (ull ? "storm-nat-" : "storm-filter-") + std::to_string(i);
    if (ull) {
      spec.implementation = std::make_shared<workloads::NatFunction>(32);
    } else {
      spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
    }
    spec.sandbox.name = spec.name + "-sb";
    spec.sandbox.num_vcpus = 1;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = ull;
    const auto id = platform.registry().add(std::move(spec));
    EXPECT_TRUE(id.has_value());
    if (provision > 0) {
      EXPECT_TRUE(platform.provision(*id, provision).is_ok());
      EXPECT_TRUE(platform.ensure_snapshot(*id).is_ok());
    }
    functions.push_back({*id, ull, provision > 0});
  }
  return functions;
}

TEST(InvokeStormTest, MixedModesAcrossShardsAllComplete) {
  PlatformConfig config;
  config.num_cpus = 8;
  config.horse.num_ull_runqueues = 2;
  Platform platform(config);

  constexpr std::size_t kProvision = 2;
  auto functions = register_functions(platform, 6, kProvision);
  // One extra uLL function that is NEVER provisioned: every kWarm request
  // for it must walk the ladder (pool miss → kRestore, snapshot built on
  // demand under storm contention).
  {
    FunctionSpec spec;
    spec.name = "storm-ladder";
    spec.implementation = std::make_shared<workloads::NatFunction>(32);
    spec.sandbox.name = "storm-ladder-sb";
    spec.sandbox.num_vcpus = 1;
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    const auto id = platform.registry().add(std::move(spec));
    ASSERT_TRUE(id.has_value());
    functions.push_back({*id, true, false});
  }

  constexpr std::size_t kSubmitThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::vector<util::Expected<InvocationRecord>>> results(
      kSubmitThreads);

  {
    std::vector<std::jthread> submitters;
    for (std::size_t t = 0; t < kSubmitThreads; ++t) {
      submitters.emplace_back([&platform, &functions, &submitted, &results,
                               t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const StormFunction& fn = functions[(t + i) % functions.size()];
          StartMode mode;
          if (!fn.provisioned) {
            mode = StartMode::kWarm;  // forced onto the ladder
          } else if (i % 16 == 15) {
            mode = StartMode::kCold;
          } else if (i % 16 == 7) {
            mode = StartMode::kRestore;
          } else {
            mode = fn.ull ? StartMode::kHorse : StartMode::kWarm;
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
          results[t].push_back(platform.invoke(
              fn.id, fn.ull ? packet_request() : filter_request(), mode));
        }
      });
    }
    // Keep-alive eviction sweeps every shard while the storm runs. Small
    // deltas: nothing actually expires (default keep-alive is minutes),
    // the point is that the walk itself races invocations safely.
    std::jthread ticker([&platform] {
      for (int i = 0; i < 50; ++i) {
        platform.advance_time(util::kMillisecond);
        std::this_thread::yield();
      }
    });
  }

  std::vector<util::Expected<InvocationRecord>> outcomes;
  for (auto& per_thread : results) {
    std::move(per_thread.begin(), per_thread.end(),
              std::back_inserter(outcomes));
  }
  constexpr std::uint64_t kExpected = kSubmitThreads * kPerThread;
  ASSERT_EQ(outcomes.size(), kExpected);
  EXPECT_EQ(submitted.load(), kExpected);

  std::uint64_t ladder_completions = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome) << outcome.status().to_report();
    if (outcome->mode != outcome->requested) {
      EXPECT_EQ(outcome->requested, StartMode::kWarm);
      ++ladder_completions;
    }
  }
  // At least the FIRST kWarm hit on the un-provisioned function had an
  // empty pool and must have walked the ladder (later ones may hit the
  // sandbox its completion re-pooled — that is the keep-alive working).
  EXPECT_GT(ladder_completions, 0u);

  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.invocations, kExpected);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.cold + counters.restore + counters.warm + counters.horse,
            counters.invocations);
  EXPECT_EQ(counters.degraded_invocations, ladder_completions);

  // Pool integrity: provisioned floors survived the storm, and the
  // ull-manager tracks exactly the pooled uLL sandboxes (every invocation
  // re-pooled or properly destroyed what it took).
  std::size_t pooled_ull = 0;
  for (const auto& fn : functions) {
    if (fn.provisioned) {
      EXPECT_GE(platform.warm_pool().available(fn.id), kProvision) << fn.id;
    }
    if (fn.ull) {
      pooled_ull += platform.warm_pool().available(fn.id);
    }
  }
  EXPECT_EQ(platform.ull_manager().tracked_count(), pooled_ull);

  // Shard accounting is internally consistent: per-shard pool occupancy
  // sums to the global total.
  std::size_t occupancy_sum = 0;
  for (const std::size_t count : platform.shard_pool_occupancy()) {
    occupancy_sum += count;
  }
  EXPECT_EQ(occupancy_sum, platform.warm_pool().total());
}

TEST(InvokeStormTest, SharedReservedQueueResumesNeverDegrade) {
  // Two clients resume uLL sandboxes off ONE reserved queue, so every
  // resume and re-park stales the index of each other sandbox paused
  // there. Step ④ must freshen the resuming sandbox's own index in place:
  // a fault-free run takes the O(1) splice every time and never degrades.
  PlatformConfig config;
  config.num_cpus = 4;
  config.horse.num_ull_runqueues = 1;
  Platform platform(config);

  constexpr std::size_t kFunctions = 4;
  constexpr std::size_t kProvision = 3;  // 12 paused uLL sandboxes
  std::vector<FunctionId> functions;
  for (std::size_t i = 0; i < kFunctions; ++i) {
    FunctionSpec spec;
    spec.name = "shared-nat-" + std::to_string(i);
    spec.implementation = std::make_shared<workloads::NatFunction>(32);
    spec.sandbox.name = spec.name + "-sb";
    spec.sandbox.num_vcpus = static_cast<std::uint32_t>(1 + i % 3);
    spec.sandbox.memory_mb = 1;
    spec.sandbox.ull = true;
    const auto id = platform.registry().add(std::move(spec));
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(platform.provision(*id, kProvision).is_ok());
    functions.push_back(*id);
  }

  constexpr std::size_t kClients = 2;
  constexpr std::size_t kPerClient = 2000;
  std::atomic<std::uint64_t> not_horse{0};
  {
    std::vector<std::jthread> clients;
    for (std::size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&platform, &functions, &not_horse, t] {
        for (std::size_t i = 0; i < kPerClient; ++i) {
          // Disjoint function sets per client: contention is on the
          // shared reserved queue, not on a shard mutex.
          const FunctionId fn = functions[t + kClients * (i % 2)];
          const auto record =
              platform.invoke(fn, packet_request(), StartMode::kHorse);
          if (!record.has_value() || record->mode != StartMode::kHorse) {
            not_horse.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }

  EXPECT_EQ(not_horse.load(), 0u);
  EXPECT_EQ(platform.counters().horse, kClients * kPerClient);
  const core::ResumeDegradationStats stats =
      platform.resume_degradation_stats();
  EXPECT_EQ(stats.fallback_merges, 0u);
  EXPECT_EQ(stats.poisoned_index_fallbacks, 0u);
  EXPECT_EQ(stats.merge_error_fallbacks, 0u);
  // The neighbours' churn really did stale the resuming indexes.
  EXPECT_GT(stats.in_place_rebuilds, 0u);
  EXPECT_EQ(platform.ull_manager().tracked_count(), kFunctions * kProvision);
}

TEST(InvokeStormTest, SingleFunctionStormSerialisesOnItsShard) {
  // Many threads hammering ONE function with provision=1, each calling
  // Platform::invoke itself: the shard mutex is the only thing preventing
  // double-take of the single pooled sandbox. Every invocation must still
  // complete (taker wins, others wait — never a corrupted pool or a
  // spurious ladder fall to kCold counted as failure).
  PlatformConfig config;
  config.num_cpus = 4;
  config.horse.num_ull_runqueues = 1;
  Platform platform(config);

  const auto functions = register_functions(platform, 1, 1);
  const FunctionId fn = functions.front().id;

  constexpr std::size_t kSubmitThreads = 4;
  constexpr std::size_t kPerThread = 48;
  std::vector<std::vector<util::Status>> statuses(kSubmitThreads);
  {
    std::vector<std::jthread> submitters;
    for (std::size_t t = 0; t < kSubmitThreads; ++t) {
      submitters.emplace_back([&platform, &statuses, fn, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          statuses[t].push_back(
              platform
                  .invoke(fn, packet_request(),
                          i % 8 == 7 ? StartMode::kCold : StartMode::kHorse)
                  .status());
        }
      });
    }
  }

  std::size_t outcomes = 0;
  for (const auto& per_thread : statuses) {
    for (const util::Status& status : per_thread) {
      ASSERT_TRUE(status.is_ok()) << status.to_report();
      ++outcomes;
    }
  }
  ASSERT_EQ(outcomes, kSubmitThreads * kPerThread);
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.invocations, kSubmitThreads * kPerThread);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_GE(platform.warm_pool().available(fn), 1u);
  EXPECT_EQ(platform.ull_manager().tracked_count(),
            platform.warm_pool().available(fn));
}

}  // namespace
}  // namespace horse::faas
