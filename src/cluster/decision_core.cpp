#include "cluster/decision_core.hpp"

namespace horse::cluster {

Router::Router(std::size_t num_hosts, PolicyKind policy)
    : policy_(make_policy(policy)),
      candidates_(num_hosts),
      decisions_(num_hosts, 0) {}

RouteDecision Router::decide(faas::FunctionId function, std::size_t count) {
  if (count == 0) {
    // Bottom ladder rung: never drop a request — host 0 takes it.
    forced_routes_.fetch_add(1, std::memory_order_relaxed);
    ++decisions_.front();
    return {0, true, {}};
  }
  if (count == 1 && candidates_.size() > 1) {
    // One rung above: the cluster has gracefully degraded to single-host
    // dispatch (sticky, observable; routing still works).
    degraded_single_host_.store(true, std::memory_order_relaxed);
  }
  const std::span<const HostSnapshot> seen(candidates_.data(), count);
  const std::size_t choice = policy_->select(seen, function);
  const HostId host = seen[choice < count ? choice : 0].host;
  ++decisions_[host];
  return {host, false, seen};
}

LeaseDetector::LeaseDetector(std::size_t num_hosts,
                             const FailureDetectorConfig& config,
                             std::uint64_t cluster_seed)
    : lease_duration_(config.lease_duration),
      missed_to_death_(config.missed_to_death),
      backoff_(util::BackoffPolicy{config.probe_backoff_base,
                                   config.probe_backoff_cap}),
      rng_(cluster_seed + 0x9e3779b9ULL),
      leases_(num_hosts) {}

LeaseVerdict LeaseDetector::observe(HostId host, util::Nanos now,
                                    const LeaseObservation& seen) {
  HostLease& lease = leases_[host];
  LeaseVerdict verdict = LeaseVerdict::kHold;
  // Completion progress or a live (responsive) process both count as a
  // heartbeat — only a crashed host can ever miss, so stall semantics are
  // untouched by the lease.
  if (seen.completed != lease.last_completed || seen.responsive) {
    lease.last_completed = seen.completed;
    lease.missed = 0;
    lease.deadline = now + lease_duration_;
    verdict = LeaseVerdict::kRenew;
  } else if (now >= lease.deadline) {
    ++lease.missed;
    missed_heartbeats_.fetch_add(1, std::memory_order_relaxed);
    lease.deadline = now + lease_duration_;
    verdict = lease.missed >= missed_to_death_ ? LeaseVerdict::kDeclareDead
                                               : LeaseVerdict::kMiss;
  }
  // A stalled host is still responsive, so it is quarantined at once
  // rather than waiting out a lease.
  if (seen.stalled && verdict != LeaseVerdict::kDeclareDead) {
    verdict = LeaseVerdict::kQuarantine;
  }
  if (verdict == LeaseVerdict::kDeclareDead ||
      verdict == LeaseVerdict::kQuarantine) {
    // Out of rotation: the first half-open probe goes on the schedule.
    lease.probe_streak = 1;
    lease.next_probe = now + backoff_.delay(1, rng_);
  }
  return verdict;
}

void LeaseDetector::probe_result(HostId host, util::Nanos now, bool ok,
                                 std::uint64_t completed) {
  HostLease& lease = leases_[host];
  probes_.fetch_add(1, std::memory_order_relaxed);
  if (ok) {
    lease.missed = 0;
    lease.probe_streak = 0;
    lease.last_completed = completed;
    lease.deadline = now + lease_duration_;
  } else {
    ++lease.probe_streak;
    lease.next_probe = now + backoff_.delay(lease.probe_streak, rng_);
  }
}

bool OrphanLedger::adopt(std::uint64_t key, bool already_redispatched) {
  if (already_redispatched) {
    return false;
  }
  orphans_.insert(key);
  adopted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool OrphanLedger::deliver(std::uint64_t key) {
  if (!orphans_.contains(key) || delivered_.insert(key).second) {
    return true;
  }
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace horse::cluster
