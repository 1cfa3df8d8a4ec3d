// chain_fused — the faas/core layers used through Platform::invoke_chain.
//
// One client, closed loop. Two registered workflows over the same three
// bodies, firewall -> nat -> array_filter, with a kGated firewall edge (a
// seeded quarter of the packets is denied and the chain exits early with the
// firewall's answer):
//   * fused — every stage uLL with one sandbox shape, so the planner runs the
//     whole chain in ONE kHorse resume (3 of 4 requests);
//   * split — the sandbox grows per stage, so no edge is fusable and the
//     planner dispatches stage by stage (1 of 4 requests).
// One resume serves several bodies and nothing contends, which isolates the
// per-invoke path cost.

#include "closed_loop.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace faas = horse::faas;
namespace wl = horse::workloads;

constexpr std::size_t kDistinct = 128;
constexpr std::size_t kProvisioned = 4;
constexpr std::size_t kPicks = 1 << 16;
constexpr Nanos kSloLimit = 75 * horse::util::kMicrosecond;
constexpr Kind kStages[] = {Kind::kFirewall, Kind::kNat, Kind::kArrayFilter};

struct Inputs {
  std::uint64_t packet_seed = 0;
  InputSet packets;
  std::vector<wl::Request> requests;
  std::vector<wl::Response> expected;
};

faas::WorkflowSpec chain_spec(const std::string& name,
                              const std::vector<faas::FunctionId>& stages) {
  faas::WorkflowSpec spec;
  spec.name = name;
  spec.stages = stages;
  spec.edges.resize(stages.size() - 1);
  spec.edges[0].plumbing = faas::EdgePlumbing::kGated;
  return spec;
}

Inputs make_inputs_for(std::uint64_t seed) {
  Inputs in;
  in.packet_seed = seed * 1000 + 1;
  in.packets = make_inputs(Kind::kFirewall, kDistinct, in.packet_seed, 0.25);
  const InputSet arrays =
      make_inputs(Kind::kArrayFilter, kDistinct, seed * 1000 + 2, 0.0);
  std::vector<std::shared_ptr<wl::Function>> oracle;
  for (const Kind kind : kStages) {
    oracle.push_back(make_body(kind, in.packet_seed, in.packets.allow_rules));
  }
  // The oracle replays the chain's plumbing on directly-called bodies.
  const faas::WorkflowSpec plumbing = chain_spec("oracle", {0, 1, 2});
  for (std::size_t i = 0; i < kDistinct; ++i) {
    wl::Request request = arrays.requests[i];
    request.header = in.packets.requests[i].header;
    in.requests.push_back(request);
    wl::Response response;
    for (std::size_t stage = 0; stage < oracle.size(); ++stage) {
      response = oracle[stage]->invoke(request);
      if (stage + 1 < oracle.size() &&
          !faas::apply_edge(plumbing.edges[stage], response, request)) {
        break;
      }
    }
    in.expected.push_back(std::move(response));
  }
  return in;
}

struct Chains {
  std::unique_ptr<faas::Platform> platform;
  faas::WorkflowId fused = 0;
  faas::WorkflowId split = 0;
};

Chains make_chains(std::uint64_t seed, const Inputs& in, StampBoard& board) {
  faas::PlatformConfig config;
  config.num_cpus = 8;
  config.seed = seed;
  Chains chains;
  chains.platform = std::make_unique<faas::Platform>(config);
  faas::Platform& platform = *chains.platform;
  for (const bool fused : {true, false}) {
    std::vector<faas::FunctionId> stages;
    for (std::size_t s = 0; s < std::size(kStages); ++s) {
      faas::FunctionSpec spec;
      spec.name = std::string(fused ? "fused-" : "split-") +
                  std::string(to_string(kStages[s]));
      spec.implementation = std::make_shared<StampedFunction>(
          make_body(kStages[s], in.packet_seed, in.packets.allow_rules),
          TagField::kThread, board);
      spec.sandbox.name = spec.name + "-sb";
      spec.sandbox.num_vcpus = 2;
      // Same shape fuses; a growing footprint never fits upstream.
      spec.sandbox.memory_mb = fused ? 4 : (2U << s);
      spec.sandbox.ull = true;
      const auto id = platform.registry().add(std::move(spec));
      if (!id) {
        throw std::runtime_error("register: " + id.status().to_report());
      }
      const horse::util::Status provisioned =
          platform.provision(*id, kProvisioned);
      if (!provisioned.is_ok()) {
        throw std::runtime_error("provision: " + provisioned.to_report());
      }
      stages.push_back(*id);
    }
    const auto workflow = platform.registry().add_workflow(
        chain_spec(fused ? "fused" : "split", stages));
    if (!workflow) {
      throw std::runtime_error("workflow: " + workflow.status().to_report());
    }
    (fused ? chains.fused : chains.split) = *workflow;
  }
  return chains;
}

}  // namespace

void run_chain_fused(const Options& options, Result& result) {
  const Inputs in = make_inputs_for(options.seed);
  struct Pick {
    bool fused = true;
    std::uint16_t request = 0;
  };
  std::vector<Pick> picks(kPicks);
  horse::util::Xoshiro256 rng(options.seed * 7919);
  for (Pick& pick : picks) {
    pick.fused = rng.bounded(4) != 0;
    pick.request = static_cast<std::uint16_t>(rng.bounded(kDistinct));
  }

  StampBoard board;
  board.inject_wrong_every = options.inject_wrong_every;
  Chains chains;
  const double setup_s = measure_setup(
      options.trace, [&] { chains.platform.reset(); },
      [&] { chains = make_chains(options.seed, in, board); });
  faas::Platform& platform = *chains.platform;

  const auto pass = [&](bool traced, double seconds) {
    board.stamp_starts.store(traced);
    return run_closed_loop(
        1, seconds, traced, kSloLimit,
        [&](std::size_t, std::uint64_t i, ClosedCall& out) {
          const Pick pick = picks[i % kPicks];
          wl::Request request = in.requests[pick.request];
          const std::uint64_t allocs = traced ? thread_allocs() : 0;
          out.start = now();
          auto chain = platform.invoke_chain(
              pick.fused ? chains.fused : chains.split, std::move(request),
              faas::StartMode::kHorse);
          out.returned = now();
          if (traced) {
            out.allocs = thread_allocs() - allocs;
          }
          out.ok = chain.has_value() &&
                   same_response(chain->record.response,
                                 in.expected[pick.request]);
          if (chain) {
            out.mode = chain->record.mode;
          }
        });
  };

  measure_closed_loop(options, "chain_fused", setup_s, platform, result,
                      pass);
  const faas::PlatformCounters counters = platform.counters();
  if (counters.fused_segments == 0 || counters.chain_fallback_stages == 0) {
    result.violate("chain_fused: expected both fused segments and per-stage "
                   "dispatch, got " + std::to_string(counters.fused_segments) +
                   " fused / " + std::to_string(counters.chain_fallback_stages) +
                   " per-stage");
  }
}

}  // namespace perfbench
