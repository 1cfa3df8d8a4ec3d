// Workflow chains + platform-side fusion (DESIGN.md §5.8).
//
// Covers the registry's DAG validation (unknown stage, empty chain,
// uLL/non-uLL boundary split points), the fusion planner, the fused
// single-resume execution path (one pool take, interior stages never
// recorded as arrivals), hop-cursor resume after a mid-chain start
// failure, per-hop deadline slack accounting (a fused run the deadline
// stops mid-way still books as one invocation), concurrent workflow
// add vs find under the registry's shared lock, and chains submitted
// through a one-host ClusterScheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "faas/platform.hpp"
#include "faas/registry.hpp"
#include "support/sanitizers.hpp"
#include "workloads/function.hpp"

namespace horse::faas {
namespace {

/// Deterministic stage body: counts its invocations, optionally spins to
/// model execution time, and appends its name to the header so the tests
/// can read the edge plumbing off the final response.
class CountingFunction final : public workloads::Function {
 public:
  explicit CountingFunction(std::string name, util::Nanos spin = 0,
                            bool allow = true)
      : name_(std::move(name)), spin_(spin), allow_(allow) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kCategory3;
  }
  workloads::Response invoke(const workloads::Request& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (spin_ != 0) {
      util::spin_for(spin_);
    }
    workloads::Response response;
    response.allowed = allow_;
    response.rewritten_header = request.header + "|" + name_;
    response.checksum =
        static_cast<std::uint64_t>(calls_.load(std::memory_order_relaxed));
    return response;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return 700;
  }

  [[nodiscard]] int calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  util::Nanos spin_;
  bool allow_;
  std::atomic<int> calls_{0};
};

FunctionSpec make_spec(const std::shared_ptr<CountingFunction>& impl,
                       bool ull, std::uint32_t vcpus = 1,
                       std::uint32_t memory_mb = 16) {
  FunctionSpec spec;
  spec.name = std::string(impl->name());
  spec.implementation = impl;
  spec.sandbox.name = spec.name + "-sb";
  spec.sandbox.num_vcpus = vcpus;
  spec.sandbox.memory_mb = memory_mb;
  spec.sandbox.ull = ull;
  return spec;
}

workloads::Request request_with_header(std::string header) {
  workloads::Request request;
  request.header = std::move(header);
  return request;
}

TEST(WorkflowRegistryTest, RejectsInvalidChains) {
  FunctionRegistry registry;
  const auto impl = std::make_shared<CountingFunction>("only");
  const FunctionId fn = *registry.add(make_spec(impl, true));

  WorkflowSpec nameless;
  nameless.stages = {fn};
  EXPECT_EQ(registry.add_workflow(nameless).status().code(),
            util::StatusCode::kInvalidArgument);

  WorkflowSpec empty;
  empty.name = "empty";
  EXPECT_EQ(registry.add_workflow(empty).status().code(),
            util::StatusCode::kInvalidArgument);

  WorkflowSpec unknown;
  unknown.name = "unknown-stage";
  unknown.stages = {fn, fn + 7};
  EXPECT_EQ(registry.add_workflow(unknown).status().code(),
            util::StatusCode::kInvalidArgument);

  WorkflowSpec bad_edges;
  bad_edges.name = "bad-edges";
  bad_edges.stages = {fn, fn};
  bad_edges.edges.resize(3);  // must be stages-1 (or empty for defaults)
  EXPECT_EQ(registry.add_workflow(bad_edges).status().code(),
            util::StatusCode::kInvalidArgument);

  WorkflowSpec ok;
  ok.name = "ok";
  ok.stages = {fn, fn};
  ASSERT_TRUE(registry.add_workflow(ok).has_value());
  WorkflowSpec duplicate = ok;
  EXPECT_EQ(registry.add_workflow(duplicate).status().code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.workflow_count(), 1u);
}

TEST(WorkflowRegistryTest, RecordsFusabilityPerAdjacentPair) {
  FunctionRegistry registry;
  const auto impl = std::make_shared<CountingFunction>("stage");
  auto add = [&](const char* name, bool ull, std::uint32_t vcpus,
                 std::uint32_t memory_mb) {
    FunctionSpec spec = make_spec(impl, ull, vcpus, memory_mb);
    spec.name = name;
    return *registry.add(std::move(spec));
  };
  const FunctionId ull_a = add("ull-a", true, 1, 16);
  const FunctionId ull_b = add("ull-b", true, 1, 8);
  const FunctionId plain = add("plain", false, 1, 16);
  const FunctionId ull_wide = add("ull-wide", true, 2, 16);
  const FunctionId ull_big = add("ull-big", true, 1, 64);

  WorkflowSpec spec;
  spec.name = "shape-matrix";
  spec.stages = {ull_a, ull_b, plain, ull_wide, ull_big};
  const WorkflowId id = *registry.add_workflow(spec);
  const WorkflowSpec& stored = **registry.find_workflow(id);
  ASSERT_EQ(stored.edges.size(), 4u);
  // uLL → uLL, same vCPUs, smaller downstream image: fusable.
  EXPECT_TRUE(stored.edges[0].fusable);
  // uLL → non-uLL boundary: never fusable.
  EXPECT_FALSE(stored.edges[1].fusable);
  // non-uLL upstream: never fusable.
  EXPECT_FALSE(stored.edges[2].fusable);
  // vCPU mismatch (2 vs 1): not co-locatable in one sandbox shape.
  EXPECT_FALSE(stored.edges[3].fusable);
}

TEST(WorkflowRegistryTest, PlannerSplitsAtNonFusableBoundaries) {
  // Edges: fusable, fusable, NOT, fusable → segments [0,3) fused,
  // [3,5) fused.
  WorkflowSpec spec;
  spec.stages = {0, 1, 2, 3, 4};
  spec.edges.resize(4);
  spec.edges[0].fusable = true;
  spec.edges[1].fusable = true;
  spec.edges[2].fusable = false;
  spec.edges[3].fusable = true;

  const auto plan = plan_fusion(spec);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 3u);
  EXPECT_TRUE(plan[0].fused);
  EXPECT_EQ(plan[1].begin, 3u);
  EXPECT_EQ(plan[1].end, 5u);
  EXPECT_TRUE(plan[1].fused);

  // A hop cursor inside a fused run re-plans only the remainder: stages
  // [1,3) still fuse, [3,5) unchanged.
  const auto resumed = plan_fusion(spec, 1);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].begin, 1u);
  EXPECT_EQ(resumed[0].end, 3u);
  EXPECT_TRUE(resumed[0].fused);

  // No fusable edges: every stage is its own singleton segment.
  WorkflowSpec loose;
  loose.stages = {0, 1, 2};
  loose.edges.resize(2);
  const auto singletons = plan_fusion(loose);
  ASSERT_EQ(singletons.size(), 3u);
  for (const ChainSegment& segment : singletons) {
    EXPECT_FALSE(segment.fused);
    EXPECT_EQ(segment.end, segment.begin + 1);
  }
}

TEST(WorkflowRegistryTest, ApplyEdgePlumbsHeadersAndGates) {
  workloads::Request request = request_with_header("orig");
  workloads::Response response;
  response.allowed = true;
  response.rewritten_header = "rewritten";
  WorkflowEdge forward;  // kForwardHeader
  EXPECT_TRUE(apply_edge(forward, response, request));
  EXPECT_EQ(request.header, "rewritten");

  // Empty rewritten_header passes the request through untouched.
  response.rewritten_header.clear();
  EXPECT_TRUE(apply_edge(forward, response, request));
  EXPECT_EQ(request.header, "rewritten");

  // kGated stops the chain when the stage said not-allowed.
  WorkflowEdge gated;
  gated.plumbing = EdgePlumbing::kGated;
  response.allowed = false;
  EXPECT_FALSE(apply_edge(gated, response, request));
  response.allowed = true;
  response.rewritten_header = "post-gate";
  EXPECT_TRUE(apply_edge(gated, response, request));
  EXPECT_EQ(request.header, "post-gate");
}

class WorkflowPlatformTest : public ::testing::Test {
 protected:
  static PlatformConfig make_config() {
    PlatformConfig config;
    config.num_cpus = 4;
    return config;
  }

  /// Register a 3-stage all-uLL same-shape chain (every edge fusable).
  WorkflowId register_fused_chain(Platform& platform) {
    stage_impls_.clear();
    WorkflowSpec spec;
    spec.name = "fused-chain";
    for (const char* name : {"wf-a", "wf-b", "wf-c"}) {
      auto impl = std::make_shared<CountingFunction>(name);
      stage_impls_.push_back(impl);
      spec.stages.push_back(*platform.registry().add(make_spec(impl, true)));
    }
    return *platform.registry().add_workflow(spec);
  }

  std::vector<std::shared_ptr<CountingFunction>> stage_impls_;
};

TEST_F(WorkflowPlatformTest, FusedChainRunsAsSingleResume) {
  Platform platform(make_config());
  const WorkflowId workflow = register_fused_chain(platform);
  const WorkflowSpec& spec = **platform.registry().find_workflow(workflow);
  const FunctionId entry = spec.stages.front();
  ASSERT_TRUE(platform.provision(entry, 1).is_ok());

  const auto chain = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kHorse);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->stages_executed, 3u);
  EXPECT_EQ(chain->fused_segments, 1u);
  EXPECT_EQ(chain->per_stage_dispatches, 0u);
  EXPECT_FALSE(chain->gated_early);
  EXPECT_EQ(chain->record.mode, StartMode::kHorse);
  // The whole chain's plumbing is visible on the final response.
  EXPECT_EQ(chain->record.response.rewritten_header, "pkt|wf-a|wf-b|wf-c");
  for (const auto& impl : stage_impls_) {
    EXPECT_EQ(impl->calls(), 1);
  }

  // One invocation, one resume, one pool take: the entry sandbox is back
  // in the pool and the interior stages never touched theirs.
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.invocations, 1u);
  EXPECT_EQ(counters.horse, 1u);
  EXPECT_EQ(counters.chains_invoked, 1u);
  EXPECT_EQ(counters.chain_stages_executed, 3u);
  EXPECT_EQ(counters.fused_segments, 1u);
  EXPECT_EQ(counters.chain_fallback_stages, 0u);
  EXPECT_EQ(platform.warm_pool().available(entry), 1u);
  EXPECT_EQ(platform.warm_pool().available(spec.stages[1]), 0u);
  EXPECT_EQ(platform.warm_pool().available(spec.stages[2]), 0u);
}

TEST_F(WorkflowPlatformTest, FusedSegmentSucceedsWhenRepoolIsRejected) {
  PlatformConfig config = make_config();
  config.warm_pool.max_per_function = 1;
  Platform platform(config);
  const WorkflowId workflow = register_fused_chain(platform);
  const WorkflowSpec& spec = **platform.registry().find_workflow(workflow);
  const FunctionId entry = spec.stages.front();
  // The entry's pool is already at its cap, so the cold-started fused
  // segment cannot re-park its sandbox after the bodies ran: that is an
  // eviction, and the chain still reports success.
  ASSERT_TRUE(platform.provision(entry, 1).is_ok());

  const auto chain = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kCold);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->stages_executed, 3u);
  EXPECT_EQ(chain->fused_segments, 1u);
  EXPECT_EQ(chain->record.response.rewritten_header, "pkt|wf-a|wf-b|wf-c");

  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.fused_segments, 1u);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.invocations, 1u);
  EXPECT_EQ(counters.cold, 1u);
  EXPECT_EQ(counters.pool_overflow_destroyed, 1u);
  EXPECT_EQ(counters.chain_fallback_stages, 0u);
  EXPECT_EQ(platform.warm_pool().available(entry), 1u);
}

TEST_F(WorkflowPlatformTest, FusedSegmentCountsOneArrivalForEntryOnly) {
  Platform platform(make_config());
  const WorkflowId workflow = register_fused_chain(platform);
  const WorkflowSpec& spec = **platform.registry().find_workflow(workflow);
  ASSERT_TRUE(platform.provision(spec.stages.front(), 1).is_ok());
  platform.advance_time(util::kMillisecond);
  ASSERT_TRUE(platform
                  .invoke_chain(workflow, request_with_header("pkt"),
                                StartMode::kHorse)
                  .has_value());

  // Pre-warm ranking sees ONE arrival, for the entry function only:
  // interior stages never took a pool slot, so they must not rank.
  const std::vector<FunctionId> ranked = platform.recently_invoked(8);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked.front(), spec.stages.front());
}

TEST_F(WorkflowPlatformTest, GatedEdgeCompletesChainEarly) {
  Platform platform(make_config());
  auto deny = std::make_shared<CountingFunction>("deny", 0, /*allow=*/false);
  auto after = std::make_shared<CountingFunction>("after");
  WorkflowSpec spec;
  spec.name = "gated";
  spec.stages = {*platform.registry().add(make_spec(deny, false)),
                 *platform.registry().add(make_spec(after, false))};
  spec.edges.resize(1);
  spec.edges[0].plumbing = EdgePlumbing::kGated;
  const WorkflowId workflow = *platform.registry().add_workflow(spec);

  const auto chain = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kCold);
  ASSERT_TRUE(chain.has_value());
  EXPECT_TRUE(chain->gated_early);
  EXPECT_EQ(chain->stages_executed, 1u);
  EXPECT_EQ(deny->calls(), 1);
  EXPECT_EQ(after->calls(), 0);  // gated stages never run
  EXPECT_FALSE(chain->record.response.allowed);
  EXPECT_EQ(platform.counters().chains_gated_early, 1u);
}

TEST_F(WorkflowPlatformTest, HopCursorResumesAfterMidChainFailure) {
  PlatformConfig config = make_config();
  // No ladder: a start failure surfaces instead of demoting, which is the
  // clean way to strand a chain mid-way.
  config.degradation.enabled = false;
  Platform platform(config);

  auto s0 = std::make_shared<CountingFunction>("hop-s0");
  auto s1 = std::make_shared<CountingFunction>("hop-s1");
  auto s2 = std::make_shared<CountingFunction>("hop-s2");
  WorkflowSpec spec;
  spec.name = "hop-chain";
  for (const auto& impl : {s0, s1, s2}) {
    spec.stages.push_back(*platform.registry().add(make_spec(impl, false)));
  }
  const WorkflowId workflow = *platform.registry().add_workflow(spec);

  // Only stage 0 has a warm sandbox: the chain completes hop 0, then
  // fails to start stage 1 and surfaces with the cursor at the frontier.
  ASSERT_TRUE(platform.provision(spec.stages[0], 1).is_ok());
  InvokeControls controls;
  const auto stranded = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kWarm, controls);
  ASSERT_FALSE(stranded.has_value());
  EXPECT_EQ(stranded.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(controls.hop, 1u);
  EXPECT_EQ(controls.hops_completed, 1u);
  EXPECT_EQ(controls.reject, SubmissionReject::kNone);
  EXPECT_EQ(s0->calls(), 1);
  EXPECT_EQ(s1->calls(), 0);

  // Resume from the cursor (the re-dispatch path): stages 1 and 2 run,
  // stage 0 is NEVER re-executed.
  ASSERT_TRUE(platform.provision(spec.stages[1], 1).is_ok());
  ASSERT_TRUE(platform.provision(spec.stages[2], 1).is_ok());
  InvokeControls resume;
  resume.hop = controls.hop;
  const auto finished = platform.invoke_chain(
      workflow, request_with_header("pkt|hop-s0"), StartMode::kWarm, resume);
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(finished->first_hop, 1u);
  EXPECT_EQ(finished->stages_executed, 2u);
  EXPECT_EQ(resume.hops_completed, 2u);
  EXPECT_EQ(finished->record.response.rewritten_header,
            "pkt|hop-s0|hop-s1|hop-s2");
  EXPECT_EQ(s0->calls(), 1);  // completed stages stay completed
  EXPECT_EQ(s1->calls(), 1);
  EXPECT_EQ(s2->calls(), 1);
}

TEST_F(WorkflowPlatformTest, HopCursorTracksCallerCallback) {
  Platform platform(make_config());
  const WorkflowId workflow = register_fused_chain(platform);
  const WorkflowSpec& spec = **platform.registry().find_workflow(workflow);
  ASSERT_TRUE(platform.provision(spec.stages.front(), 1).is_ok());

  std::vector<std::uint32_t> hops;
  std::vector<FunctionId> functions;
  InvokeControls controls;
  controls.on_hop = [&](std::uint32_t hop, FunctionId function) {
    hops.push_back(hop);
    functions.push_back(function);
  };
  ASSERT_TRUE(platform
                  .invoke_chain(workflow, request_with_header("pkt"),
                                StartMode::kHorse, controls)
                  .has_value());
  EXPECT_EQ(hops, (std::vector<std::uint32_t>{1, 2, 3}));
  // The cursor names the NEXT stage to run (the last stage again once
  // the chain is done) — what a host's in-flight ledger re-dispatches.
  EXPECT_EQ(functions,
            (std::vector<FunctionId>{spec.stages[1], spec.stages[2],
                                     spec.stages[2]}));
}

TEST_F(WorkflowPlatformTest, DeadlineSlackAccountedPerHop) {
  Platform platform(make_config());
  // Two plain stages, each spinning ~200 µs.
  auto slow_a = std::make_shared<CountingFunction>("slow-a",
                                                   200 * util::kMicrosecond);
  auto slow_b = std::make_shared<CountingFunction>("slow-b",
                                                   200 * util::kMicrosecond);
  WorkflowSpec spec;
  spec.name = "slow-chain";
  spec.stages = {*platform.registry().add(make_spec(slow_a, false)),
                 *platform.registry().add(make_spec(slow_b, false))};
  const WorkflowId workflow = *platform.registry().add_workflow(spec);
  ASSERT_TRUE(platform.provision(spec.stages[0], 1).is_ok());
  ASSERT_TRUE(platform.provision(spec.stages[1], 1).is_ok());

  // An already-expired deadline is refused before hop 0 runs anything.
  InvokeControls expired;
  expired.now = util::monotonic_now();
  expired.deadline = expired.now;  // 0 slack
  const auto refused = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kWarm, expired);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(expired.reject, SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(slow_a->calls(), 0);

  // 100 µs of slack admits hop 0 (≈200 µs of work) but must refuse hop 1:
  // the chain's one deadline is re-checked against remaining slack per
  // hop, not only at the front door.
  InvokeControls tight;
  tight.now = util::monotonic_now();
  tight.deadline = tight.now + 100 * util::kMicrosecond;
  const auto stranded = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kWarm, tight);
  ASSERT_FALSE(stranded.has_value());
  EXPECT_EQ(stranded.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tight.reject, SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(tight.hop, 1u);
  EXPECT_EQ(slow_a->calls(), 1);
  EXPECT_EQ(slow_b->calls(), 0);  // never started after the slack ran out
}

TEST_F(WorkflowPlatformTest, MidSegmentDeadlineBooksTheFusedRunAsAnInvocation) {
  Platform platform(make_config());
  // A fusable uLL chain whose first stage spins ~10 ms: 2 ms of slack
  // admits the fused segment, which then runs out of deadline after hop 0.
  auto slow = std::make_shared<CountingFunction>("fused-slow",
                                                 10 * util::kMillisecond);
  auto next = std::make_shared<CountingFunction>("fused-next");
  WorkflowSpec spec;
  spec.name = "fused-slow-chain";
  spec.stages = {*platform.registry().add(make_spec(slow, true)),
                 *platform.registry().add(make_spec(next, true))};
  const WorkflowId workflow = *platform.registry().add_workflow(spec);
  ASSERT_TRUE(platform.provision(spec.stages[0], 1).is_ok());

  InvokeControls tight;
  tight.now = util::monotonic_now();
  tight.deadline = tight.now + 2 * util::kMillisecond;
  const auto stranded = platform.invoke_chain(
      workflow, request_with_header("pkt"), StartMode::kHorse, tight);
  ASSERT_FALSE(stranded.has_value());
  EXPECT_EQ(stranded.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tight.reject, SubmissionReject::kDeadlineExpired);
  EXPECT_EQ(tight.hop, 1u) << "the cursor sits past the last body that ran";
  EXPECT_EQ(slow->calls(), 1);
  EXPECT_EQ(next->calls(), 0);

  // The sandbox started and a body ran: one invocation by its start mode,
  // not a failure, and the per-mode sum still equals invocations.
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.invocations, 1u);
  EXPECT_EQ(counters.horse, 1u);
  EXPECT_EQ(counters.cold + counters.restore + counters.warm + counters.horse,
            counters.invocations);
  EXPECT_EQ(counters.deadline_rejections, 1u);
  EXPECT_EQ(platform.warm_pool().available(spec.stages[0]), 1u)
      << "the healthy sandbox still returns to the pool";
}

TEST(WorkflowRegistryConcurrencyTest, ConcurrentAddAndFindUnderSharedLock) {
  FunctionRegistry registry;
  const auto impl = std::make_shared<CountingFunction>("base");
  const FunctionId fn = *registry.add(make_spec(impl, true));

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, fn, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        WorkflowSpec spec;
        spec.name = "wf-" + std::to_string(w) + "-" + std::to_string(i);
        spec.stages = {fn, fn};
        ASSERT_TRUE(registry.add_workflow(std::move(spec)).has_value());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&registry, fn, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Readers must always see a consistent registry: every id below
        // the published count resolves, and stored chains are intact.
        const auto count = static_cast<WorkflowId>(registry.workflow_count());
        for (WorkflowId id = 0; id < count; ++id) {
          const auto spec = registry.find_workflow(id);
          ASSERT_TRUE(spec.has_value());
          ASSERT_EQ((*spec)->stages.size(), 2u);
          ASSERT_EQ((*spec)->stages.front(), fn);
        }
        ASSERT_TRUE(registry.find(fn).has_value());
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[w].join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) {
    threads[i].join();
  }
  EXPECT_EQ(registry.workflow_count(),
            static_cast<std::size_t>(kWriters * kPerWriter));
}

TEST(WorkflowClusterTest, ChainsFlowThroughOneHostScheduler) {
  cluster::ClusterConfig config;
  config.num_hosts = 1;
  config.workers_per_host = 2;
  cluster::ClusterScheduler cluster(config);
  auto a = std::make_shared<CountingFunction>("inv-a");
  auto b = std::make_shared<CountingFunction>("inv-b");
  WorkflowSpec spec;
  spec.name = "one-host-chain";
  spec.stages = {
      *cluster.register_function([&a] { return make_spec(a, true); }),
      *cluster.register_function([&b] { return make_spec(b, true); })};
  const WorkflowId workflow = *cluster.register_workflow(spec);
  ASSERT_TRUE(cluster.provision(spec.stages.front(), 1).is_ok());

  cluster.submit_chain(workflow, request_with_header("pkt"), StartMode::kHorse);
  cluster.submit_chain(workflow + 17, request_with_header("pkt"),
                       StartMode::kHorse);  // unknown workflow
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    if (outcome.workflow == workflow) {
      EXPECT_TRUE(outcome.status.is_ok());
      EXPECT_EQ(outcome.chain_stages, 2u);
      EXPECT_EQ(outcome.record.response.rewritten_header, "pkt|inv-a|inv-b");
    } else {
      // Unknown workflows fail typed-NotFound at execution, same late
      // contract as an unknown function id.
      EXPECT_FALSE(outcome.status.is_ok());
      EXPECT_EQ(outcome.status.code(), util::StatusCode::kNotFound);
    }
  }
  EXPECT_EQ(a->calls(), 1);
  EXPECT_EQ(b->calls(), 1);
}

}  // namespace
}  // namespace horse::faas
