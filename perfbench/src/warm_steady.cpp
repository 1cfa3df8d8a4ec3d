// warm_steady — the warm hot path under sharing.
//
// One Platform with 2 reserved ull run queues and 16 functions: 12 uLL
// (firewall / NAT / array-filter, 1-4 vCPUs) requested as kHorse and 4
// plain ones requested as kWarm, each provisioned with 8 paused sandboxes
// (48 paused uLL sandboxes per reserved queue). Two closed-loop clients on
// disjoint function sets call Platform::invoke. Every request is a warm hit,
// so the time goes to shard -> pool -> resume -> body -> re-park; the
// cluster, the dispatcher and snapshot restore are bypassed.

#include "closed_loop.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace faas = horse::faas;
namespace wl = horse::workloads;

constexpr std::size_t kUllFunctions = 12;
constexpr std::size_t kPlainFunctions = 4;
constexpr std::size_t kProvisioned = 8;
constexpr std::size_t kDistinct = 64;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPicks = 1 << 16;
constexpr Nanos kSloLimit = 100 * horse::util::kMicrosecond;

struct Function {
  Kind kind = Kind::kNat;
  bool ull = false;
  std::uint32_t vcpus = 1;
  std::uint64_t seed = 0;
  InputSet inputs;
  std::vector<wl::Response> expected;
  faas::FunctionId id = 0;
};

struct Pick {
  std::uint16_t function = 0;  // index into the client's functions
  std::uint16_t request = 0;
};

std::vector<Function> make_functions(std::uint64_t seed) {
  constexpr Kind kKinds[] = {Kind::kFirewall, Kind::kNat, Kind::kArrayFilter};
  std::vector<Function> functions(kUllFunctions + kPlainFunctions);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    Function& fn = functions[i];
    fn.kind = kKinds[i % 3];
    fn.ull = i < kUllFunctions;
    fn.vcpus = fn.ull ? static_cast<std::uint32_t>(1 + i % 4)
                      : static_cast<std::uint32_t>(1 + i % 2);
    fn.seed = seed * 1000 + i;
    fn.inputs = make_inputs(fn.kind, kDistinct, fn.seed, 0.25);
    // The oracle: an identically seeded body, called directly.
    const auto oracle = make_body(fn.kind, fn.seed, fn.inputs.allow_rules);
    for (const wl::Request& request : fn.inputs.requests) {
      fn.expected.push_back(oracle->invoke(request));
    }
  }
  return functions;
}

std::unique_ptr<faas::Platform> make_platform(std::uint64_t seed,
                                              std::vector<Function>& functions,
                                              StampBoard& board) {
  faas::PlatformConfig config;
  config.num_cpus = 8;
  config.horse.num_ull_runqueues = 2;
  config.seed = seed;
  auto platform = std::make_unique<faas::Platform>(config);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    Function& fn = functions[i];
    faas::FunctionSpec spec;
    spec.name = "ws-" + std::string(to_string(fn.kind)) + "-" + std::to_string(i);
    spec.implementation = std::make_shared<StampedFunction>(
        make_body(fn.kind, fn.seed, fn.inputs.allow_rules), TagField::kThread,
        board);
    spec.sandbox.name = spec.name + "-sb";
    spec.sandbox.num_vcpus = fn.vcpus;
    spec.sandbox.memory_mb = 4;
    spec.sandbox.ull = fn.ull;
    const auto id = platform->registry().add(std::move(spec));
    if (!id) {
      throw std::runtime_error("register: " + id.status().to_report());
    }
    fn.id = *id;
    const horse::util::Status provisioned =
        platform->provision(fn.id, kProvisioned);
    if (!provisioned.is_ok()) {
      throw std::runtime_error("provision: " + provisioned.to_report());
    }
  }
  return platform;
}

}  // namespace

void run_warm_steady(const Options& options, Result& result) {
  std::vector<Function> functions = make_functions(options.seed);

  // Client c owns functions {c, c + 2, ...}: disjoint function sets, so
  // the clients share only the reserved queues and the ull manager.
  std::vector<std::vector<const Function*>> owned(kClients);
  std::vector<std::vector<Pick>> picks(kClients);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    owned[i % kClients].push_back(&functions[i]);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    horse::util::Xoshiro256 rng(options.seed * 7919 + c);
    picks[c].resize(kPicks);
    for (Pick& pick : picks[c]) {
      pick.function = static_cast<std::uint16_t>(rng.bounded(owned[c].size()));
      pick.request = static_cast<std::uint16_t>(rng.bounded(kDistinct));
    }
  }

  StampBoard board;
  board.inject_wrong_every = options.inject_wrong_every;
  std::unique_ptr<faas::Platform> platform;
  const double setup_s = measure_setup(
      options.trace, [&] { platform.reset(); },
      [&] { platform = make_platform(options.seed, functions, board); });

  const auto pass = [&](bool traced, double seconds) {
    board.stamp_starts.store(traced);
    return run_closed_loop(
        kClients, seconds, traced, kSloLimit,
        [&](std::size_t c, std::uint64_t i, ClosedCall& out) {
          const Pick pick = picks[c][i % kPicks];
          const Function& fn = *owned[c][pick.function];
          wl::Request request = fn.inputs.requests[pick.request];
          const faas::StartMode mode =
              fn.ull ? faas::StartMode::kHorse : faas::StartMode::kWarm;
          const std::uint64_t allocs = traced ? thread_allocs() : 0;
          out.start = now();
          auto record = platform->invoke(fn.id, std::move(request), mode);
          out.returned = now();
          if (traced) {
            out.allocs = thread_allocs() - allocs;
          }
          out.ok = record.has_value() &&
                   same_response(record->response, fn.expected[pick.request]);
          if (record) {
            out.mode = record->mode;
          }
        });
  };

  measure_closed_loop(options, "warm_steady", setup_s, *platform, result,
                      pass);
}

}  // namespace perfbench
