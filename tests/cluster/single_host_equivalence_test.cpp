// --hosts 1 must be serial Platform::invoke on the same platform,
// behaviorally: same outcomes, same pool state, same error surface. The
// cluster layer (front door, dispatcher queue, worker threads) may add
// latency but never semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/scheduler.hpp"
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

faas::PlatformConfig platform_config() {
  faas::PlatformConfig config;
  config.num_cpus = 4;
  return config;
}

struct OutcomeDigest {
  std::vector<util::StatusCode> codes;
  std::vector<faas::StartMode> modes;
  std::vector<std::size_t> response_sizes;
};

OutcomeDigest digest(std::vector<faas::SubmissionOutcome> outcomes) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  OutcomeDigest out;
  for (const auto& outcome : outcomes) {
    out.codes.push_back(outcome.status.code());
    out.modes.push_back(outcome.mode);
    out.response_sizes.push_back(outcome.record.response.indexes.size());
  }
  return out;
}

template <typename SubmitFn>
void drive(SubmitFn submit, faas::FunctionId filter) {
  for (int i = 0; i < 24; ++i) {
    submit(filter, filter_request(),
           i % 3 == 0 ? faas::StartMode::kHorse : faas::StartMode::kCold);
  }
  // And two deliberate failures: unknown function, empty-pool warm start
  // is NOT included (degradation would mask it nondeterministically);
  // unknown-function is mode-independent.
  submit(999, filter_request(), faas::StartMode::kCold);
}

TEST(SingleHostEquivalenceTest, OutcomesMatchSerialPlatformInvoke) {
  // Reference: serial Platform::invoke on the calling thread.
  faas::Platform platform(platform_config());
  const auto serial_filter = platform.registry().add(filter_spec());
  ASSERT_TRUE(serial_filter);
  ASSERT_TRUE(platform.provision(*serial_filter, 2).is_ok());
  OutcomeDigest single;
  drive(
      [&](faas::FunctionId fn, workloads::Request request,
          faas::StartMode mode) {
        const auto result = platform.invoke(fn, std::move(request), mode);
        single.codes.push_back(result.status().code());
        single.modes.push_back(mode);
        single.response_sizes.push_back(
            result ? result->response.indexes.size() : 0);
      },
      *serial_filter);

  // Cluster path, one host with two workers, same platform template
  // (host 0's seed offset is zero, so the two platforms are identical).
  ClusterConfig config;
  config.num_hosts = 1;
  config.workers_per_host = 2;
  config.platform = platform_config();
  ClusterScheduler cluster(config);
  const auto cluster_filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(cluster_filter);
  EXPECT_EQ(*cluster_filter, *serial_filter);
  ASSERT_TRUE(cluster.provision(*cluster_filter, 2).is_ok());
  drive(
      [&](faas::FunctionId fn, workloads::Request request,
          faas::StartMode mode) { cluster.submit(fn, std::move(request), mode); },
      *cluster_filter);
  const OutcomeDigest clustered = digest(cluster.drain());

  EXPECT_EQ(single.codes, clustered.codes);
  EXPECT_EQ(single.modes, clustered.modes);
  EXPECT_EQ(single.response_sizes, clustered.response_sizes);

  // Same residual pool state on both sides.
  EXPECT_EQ(platform.warm_pool().available(*serial_filter),
            cluster.host(0).platform().warm_pool().available(*cluster_filter));
}

TEST(SingleHostEquivalenceTest, SingleHostOutcomesAllNameHostZero) {
  ClusterConfig config;
  config.num_hosts = 1;
  config.workers_per_host = 2;
  config.platform = platform_config();
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  for (int i = 0; i < 10; ++i) {
    cluster.submit(*filter, filter_request(), faas::StartMode::kCold);
  }
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 10u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.host, 0u);
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
  }
  const ClusterCounters counters = cluster.counters();
  EXPECT_EQ(counters.forced_routes, 0u);
  EXPECT_FALSE(counters.degraded_single_host);
}

}  // namespace
}  // namespace horse::cluster
