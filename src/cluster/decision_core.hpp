// The cluster decision core: every choice the cluster layer makes about
// where a submission goes, whether it is admitted, which hosts count as
// alive, and which of two outcomes for one idempotency key survives.
//
// It is one single-threaded, clock-injected state machine, run by two
// callers:
//   * ClusterScheduler (threads, monotonic clock) — routing under its
//     dispatch mutex; the lease detector and the orphan ledger under its
//     health mutex.
//   * SimCluster (one thread, virtual time) — routing, admission and the
//     ledger, so the 1024-seed sweeps run the production decision code.
// The core never reads a clock, sleeps, or touches a host: the caller
// hands it `now` and what it observed, and carries out the verdict
// (force-recover, steal, re-dispatch, rehydrate, decision log).
//
// Parts:
//   * Router — push routing and the degradation ladder: filter healthy
//     hosts, force host 0 when none is, ask the LoadBalancePolicy, clamp
//     its answer. Owns the policy object, the per-host decision counts,
//     forced_routes and the sticky degraded_single_host flag. Routing
//     builds nothing per submission: snapshots land in fixed per-host
//     storage.
//   * Admission — the α = 1/8 queueing EWMA step, the optimistic
//     estimate (min EWMA over healthy hosts), and the slack-shed rule.
//   * LeaseDetector — per-host leases renewed by completion progress or
//     responsiveness; `missed_to_death` consecutive missed deadlines
//     declare a host dead; a stalled host is quarantined at once; out of
//     rotation, a full-jitter util::Backoff schedules half-open probes.
//   * OrphanLedger — keys of in-flight tasks stolen off dead hosts: the
//     first outcome per adopted key is delivered, the second suppressed.
//
// Counters an observer reads without the guarding mutex (forced routes,
// the degraded flag, missed heartbeats, probes, adopted orphans,
// suppressed duplicates) are relaxed atomics, written by the one thread
// that holds the part's mutex.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "cluster/load_balance.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace horse::cluster {

/// Lease/heartbeat failure detector + rejoin knobs.
struct FailureDetectorConfig {
  /// Lease a renewing host holds. A healthy host renews by making
  /// completion progress or answering a liveness probe; once the lease
  /// expires with neither, each subsequent sweep past the deadline
  /// counts one missed heartbeat. 0 = every no-progress sweep of a
  /// non-responsive host is a miss (deterministic tests).
  util::Nanos lease_duration = 5 * util::kMillisecond;
  /// Consecutive missed heartbeats before a host is declared dead.
  std::size_t missed_to_death = 3;
  /// Background sweeper period — the time-based fallback that lets an
  /// IDLE cluster notice dead hosts (submission-driven sweeps only fire
  /// under traffic). 0 disables the sweeper thread.
  util::Nanos sweep_period = 1 * util::kMillisecond;
  /// Half-open probe schedule for unhealthy hosts: full-jitter
  /// util::Backoff over the consecutive-failed-probe streak.
  util::Nanos probe_backoff_base = 1 * util::kMillisecond;
  util::Nanos probe_backoff_cap = 50 * util::kMillisecond;
  /// Warm rejoin: rehydrate this many most-recently-invoked functions,
  /// this many pooled sandboxes each, before re-entering rotation.
  /// rehydrate_top_k = 0 disables rehydration (rejoin lands cold).
  std::size_t rehydrate_top_k = 4;
  std::size_t rehydrate_per_function = 1;
};

// --- routing -----------------------------------------------------------------

struct RouteDecision {
  HostId host = 0;
  /// No healthy host existed: the ladder's bottom rung forced host 0 (the
  /// caller force-recovers it; requests are never dropped).
  bool forced = false;
  /// The healthy-only snapshots the policy saw (empty when forced); valid
  /// until the next route().
  std::span<const HostSnapshot> candidates;
};

class Router {
 public:
  Router(std::size_t num_hosts, PolicyKind policy);

  /// Route one push submission of `function`. `healthy(id)` is asked for
  /// every host in id order and `snapshot(id)` only for the healthy ones.
  /// When one healthy host is left out of several, the sticky
  /// degraded_single_host flag is set.
  template <typename Healthy, typename Snapshot>
  RouteDecision route(faas::FunctionId function, Healthy&& healthy,
                      Snapshot&& snapshot) {
    std::size_t count = 0;
    for (HostId id = 0; id < candidates_.size(); ++id) {
      if (healthy(id)) {
        candidates_[count++] = snapshot(id);
      }
    }
    return decide(function, count);
  }

  /// Routing decisions per host, forced routes included.
  [[nodiscard]] const std::vector<std::uint64_t>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] std::uint64_t forced_routes() const noexcept {
    return forced_routes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool degraded_single_host() const noexcept {
    return degraded_single_host_.load(std::memory_order_relaxed);
  }

 private:
  RouteDecision decide(faas::FunctionId function, std::size_t count);

  std::unique_ptr<LoadBalancePolicy> policy_;
  std::vector<HostSnapshot> candidates_;  // one slot per host, reused
  std::vector<std::uint64_t> decisions_;
  std::atomic<std::uint64_t> forced_routes_{0};
  std::atomic<bool> degraded_single_host_{false};
};

// --- admission ---------------------------------------------------------------

/// One step of a host's queueing-delay EWMA (α = 1/8), fed by the
/// queueing delay of every task the host starts.
[[nodiscard]] constexpr util::Nanos ewma_step(util::Nanos average,
                                              util::Nanos sample) noexcept {
  return average + (sample - average) / 8;
}

/// The admission estimate: minimum queueing EWMA over healthy hosts
/// (optimistic — the cluster sheds only when every healthy host is
/// already backed up past the slack); 0 when no host is healthy.
template <typename Healthy, typename Ewma>
[[nodiscard]] util::Nanos queue_delay_estimate(std::size_t num_hosts,
                                               Healthy&& healthy, Ewma&& ewma) {
  constexpr util::Nanos kNone = std::numeric_limits<util::Nanos>::max();
  util::Nanos best = kNone;
  for (HostId id = 0; id < num_hosts; ++id) {
    if (healthy(id)) {
      best = std::min(best, ewma(id));
    }
  }
  return best == kNone ? 0 : best;
}

/// The slack-shed rule for a deadline submission arriving at `now`: shed
/// when no slack is left or the estimated queue delay already eats it —
/// executing would only produce a late, worthless response.
[[nodiscard]] constexpr bool sheds_on_slack(util::Nanos deadline,
                                            util::Nanos now,
                                            util::Nanos estimate) noexcept {
  const util::Nanos slack = deadline > now ? deadline - now : 0;
  return slack == 0 || estimate > slack;
}

// --- lease detector ------------------------------------------------------------

/// Per-host lease state.
struct HostLease {
  /// Deadline of the current lease (0 = not yet armed).
  util::Nanos deadline = 0;
  /// Host completion count at the last renewal (progress detector).
  std::uint64_t last_completed = 0;
  /// Consecutive missed heartbeats; reset on renewal.
  std::size_t missed = 0;
  /// Consecutive failed half-open probes (backoff attempt number).
  std::size_t probe_streak = 0;
  /// Earliest instant the next half-open probe may fire.
  util::Nanos next_probe = 0;
};

/// What one sweep saw of an in-rotation host.
struct LeaseObservation {
  std::uint64_t completed = 0;
  bool responsive = true;
  bool stalled = false;
};

enum class LeaseVerdict : std::uint8_t {
  /// No progress and not responsive, but the lease has not expired yet.
  kHold,
  kRenew,
  kMiss,
  /// Stalled: out of rotation now, backlog to re-dispatch.
  kQuarantine,
  /// `missed_to_death` consecutive misses: steal, re-dispatch, adopt.
  kDeclareDead,
};

class LeaseDetector {
 public:
  /// The probe jitter stream is seeded `cluster_seed + 0x9e3779b9`,
  /// decorrelated from the per-host platform streams (seed + id * 7919).
  LeaseDetector(std::size_t num_hosts, const FailureDetectorConfig& config,
                std::uint64_t cluster_seed);

  /// One sweep's look at an in-rotation host. Completion progress or a
  /// responsive process renews the lease, so only a host that is neither
  /// can miss. Quarantine and declared death arm the probe schedule.
  LeaseVerdict observe(HostId host, util::Nanos now,
                       const LeaseObservation& seen);
  /// Is an out-of-rotation host's next half-open probe due at `now`?
  [[nodiscard]] bool probe_due(HostId host, util::Nanos now) const noexcept {
    return now >= leases_[host].next_probe;
  }
  /// Record one probe answer. A host that answered rejoins with a fresh
  /// lease from `completed`; one that did not backs off further.
  void probe_result(HostId host, util::Nanos now, bool ok,
                    std::uint64_t completed);

  [[nodiscard]] const HostLease& lease(HostId host) const noexcept {
    return leases_[host];
  }
  [[nodiscard]] std::uint64_t missed_heartbeats() const noexcept {
    return missed_heartbeats_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t probes() const noexcept {
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  util::Nanos lease_duration_;
  std::size_t missed_to_death_;
  util::Backoff backoff_;
  util::Xoshiro256 rng_;
  std::vector<HostLease> leases_;
  std::atomic<std::uint64_t> missed_heartbeats_{0};
  std::atomic<std::uint64_t> probes_{0};
};

// --- orphan ledger ---------------------------------------------------------------

class OrphanLedger {
 public:
  /// Take an in-flight task stolen off a dead host into the ledger; its
  /// caller then re-dispatches a copy. Refused (false) when the task is
  /// already a re-dispatched copy: its zombie is the surviving outcome,
  /// and another copy would mint a third.
  bool adopt(std::uint64_t key, bool already_redispatched);
  /// One outcome for `key` is about to surface: true = deliver it; false
  /// = the second sighting of an adopted key, suppressed and counted.
  bool deliver(std::uint64_t key);

  [[nodiscard]] std::uint64_t adopted() const noexcept {
    return adopted_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  std::unordered_set<std::uint64_t> orphans_;
  std::unordered_set<std::uint64_t> delivered_;
  std::atomic<std::uint64_t> adopted_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

}  // namespace horse::cluster
