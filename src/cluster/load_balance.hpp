// Pluggable cluster load-balancing policies.
//
// The cluster scheduler decides which host receives a pushed invocation
// through a LoadBalancePolicy — the same policy-object shape faabric
// hangs off its Scheduler (FaasmDefault / LeastLoadAverage / MostSlots),
// specialised to HORSE's host model:
//
//   * RoundRobin     — rotate over the healthy hosts; the fairness
//                      baseline (max/min dispatch delta ≤ 1).
//   * LeastLoaded    — fewest queued + running invocations; classic
//                      join-shortest-queue push dispatch.
//   * MostWarmSlots  — most warm sandboxes pooled for the submitted
//                      function: route where the resume will be hot,
//                      trading queue balance for fewer cold starts.
//
// Policies are deterministic pure functions of (snapshot span, own
// internal counters): given the same sequence of snapshot spans they
// make the same decisions, which is what lets the tests/cluster/ harness
// replay every decision from a seed. They see only healthy hosts — the
// decision core's Router pre-filters into fixed per-host storage — and
// must return an index INTO THE SPAN they were given (the snapshot's
// `host` field carries the cluster-wide id).
//
// Thread-safety: select() is called by the Router, under the cluster's
// dispatch lock; policies need no locking of their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "faas/registry.hpp"
#include "util/status.hpp"

namespace horse::cluster {

using HostId = std::size_t;

/// Point-in-time view of one host, the policy decision currency. Built by
/// the real scheduler from per-host Dispatcher/Platform counters and by
/// the deterministic harness from modelled hosts, so policies cannot tell
/// (and need not care) which world they are balancing.
struct HostSnapshot {
  HostId host = 0;
  bool healthy = true;
  /// Worker slots with neither queued nor running work.
  std::size_t free_slots = 0;
  /// Queued-but-unstarted invocations (push backlog; 0 in pull mode).
  std::size_t queued = 0;
  /// Invocations currently executing.
  std::size_t in_flight = 0;
  /// Total worker slots.
  std::size_t capacity = 0;
  /// Warm sandboxes pooled for the function being dispatched.
  std::size_t warm_slots = 0;
  /// Lifetime dispatches this host has received.
  std::uint64_t dispatched = 0;

  /// Queue-occupancy load metric the LeastLoaded policy minimises.
  [[nodiscard]] std::size_t load() const noexcept { return queued + in_flight; }
};

class LoadBalancePolicy {
 public:
  virtual ~LoadBalancePolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Pick a host for one invocation of `function`. `hosts` is non-empty
  /// and healthy-only; returns an index into it.
  [[nodiscard]] virtual std::size_t select(
      std::span<const HostSnapshot> hosts, faas::FunctionId function) = 0;
};

/// Rotates over healthy hosts. The rotation counter advances once per
/// decision regardless of the host set's size, so fairness holds even as
/// hosts are quarantined and the span shrinks.
class RoundRobinPolicy final : public LoadBalancePolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "round_robin";
  }
  [[nodiscard]] std::size_t select(std::span<const HostSnapshot> hosts,
                                   faas::FunctionId function) override;

 private:
  std::uint64_t next_ = 0;
};

/// Fewest queued + in-flight invocations; ties break toward the lowest
/// host id so decisions are deterministic.
class LeastLoadedPolicy final : public LoadBalancePolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "least_loaded";
  }
  [[nodiscard]] std::size_t select(std::span<const HostSnapshot> hosts,
                                   faas::FunctionId function) override;
};

/// Most warm sandboxes pooled for the function; ties break toward the
/// least-loaded, then lowest-id host.
class MostWarmSlotsPolicy final : public LoadBalancePolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "most_warm";
  }
  [[nodiscard]] std::size_t select(std::span<const HostSnapshot> hosts,
                                   faas::FunctionId function) override;
};

enum class PolicyKind : std::uint8_t {
  kRoundRobin,
  kLeastLoaded,
  kMostWarmSlots,
};

[[nodiscard]] std::unique_ptr<LoadBalancePolicy> make_policy(PolicyKind kind);

/// Accepts the bench spellings: "rr"/"round_robin", "least_loaded"/"ll",
/// "most_warm"/"most_warm_slots"/"mw".
[[nodiscard]] util::Expected<PolicyKind> parse_policy(std::string_view name);

[[nodiscard]] constexpr std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kRoundRobin: return "round_robin";
    case PolicyKind::kLeastLoaded: return "least_loaded";
    case PolicyKind::kMostWarmSlots: return "most_warm";
  }
  return "unknown";
}

}  // namespace horse::cluster
