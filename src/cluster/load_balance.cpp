#include "cluster/load_balance.hpp"

namespace horse::cluster {

std::size_t RoundRobinPolicy::select(std::span<const HostSnapshot> hosts,
                                     faas::FunctionId function) {
  (void)function;
  return static_cast<std::size_t>(next_++ % hosts.size());
}

std::size_t LeastLoadedPolicy::select(std::span<const HostSnapshot> hosts,
                                      faas::FunctionId function) {
  (void)function;
  std::size_t best = 0;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const HostSnapshot& candidate = hosts[i];
    const HostSnapshot& incumbent = hosts[best];
    // Ties break toward the lowest cluster-wide host ID (not span
    // position), so the decision is stable however the healthy set was
    // assembled.
    if (candidate.load() < incumbent.load() ||
        (candidate.load() == incumbent.load() &&
         candidate.host < incumbent.host)) {
      best = i;
    }
  }
  return best;
}

std::size_t MostWarmSlotsPolicy::select(std::span<const HostSnapshot> hosts,
                                        faas::FunctionId function) {
  (void)function;
  std::size_t best = 0;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const HostSnapshot& candidate = hosts[i];
    const HostSnapshot& incumbent = hosts[best];
    if (candidate.warm_slots > incumbent.warm_slots ||
        (candidate.warm_slots == incumbent.warm_slots &&
         (candidate.load() < incumbent.load() ||
          (candidate.load() == incumbent.load() &&
           candidate.host < incumbent.host)))) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<LoadBalancePolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case PolicyKind::kMostWarmSlots:
      return std::make_unique<MostWarmSlotsPolicy>();
  }
  return std::make_unique<RoundRobinPolicy>();
}

util::Expected<PolicyKind> parse_policy(std::string_view name) {
  if (name == "rr" || name == "round_robin" || name == "roundrobin") {
    return PolicyKind::kRoundRobin;
  }
  if (name == "ll" || name == "least_loaded" || name == "leastloaded") {
    return PolicyKind::kLeastLoaded;
  }
  if (name == "mw" || name == "most_warm" || name == "most_warm_slots" ||
      name == "mostwarm") {
    return PolicyKind::kMostWarmSlots;
  }
  return util::Status{util::StatusCode::kInvalidArgument,
                      "unknown load-balance policy (expected rr | "
                      "least_loaded | most_warm)"};
}

}  // namespace horse::cluster
