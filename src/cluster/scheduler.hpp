// Multi-host cluster scheduler over N simulated Hosts.
//
// The control plane's top layer: N Hosts (each a full single-host
// Platform + worker pool) behind one submission front door, with two
// dispatch disciplines:
//
//   * PUSH — submit() consults the pluggable LoadBalancePolicy over
//     healthy-host snapshots and commits the request to the chosen
//     host's local queue immediately (faabric-style early binding).
//   * PULL — submit() appends to one shared bounded queue; idle hosts
//     pull the next request the moment a worker frees up (Hiku-style
//     late binding). No request is ever committed to a host without a
//     free slot, which is what flattens tail latency under skew: a
//     burst on a hot function can never convoy behind one host's
//     backlog while other hosts sit idle.
//
// Every decision — routing and the degradation ladder, admission, the
// lease detector, the orphan ledger — is made by the decision core
// (decision_core.hpp), the same code SimCluster drives in virtual time.
// This class runs it on threads: it hands the core `now` and what it
// observed of the hosts, and carries out the verdicts (force-recover,
// steal, re-dispatch, rehydrate).
//
// Cluster-level state is tiny and reconstructable (Dirigent): beyond the
// core's state, the scheduler owns only the monotonic submit counter
// and fault counters. Everything in stats() — occupancy, completions,
// health, the hosts_quarantined gauge — is recomputed from the
// hosts' own atomics at call time; quarantining a host writes one flag
// on the host, not a parallel registry here.
//
// Health & degradation ladder (extends DESIGN.md §5.2 to the cluster):
// a host whose cluster.host_stall fault fires parks its workers. The
// health sweep (every `health_check_interval` submissions, on the
// background sweeper's timer tick, at drain start, and while drain
// waits) quarantines it: out of policy rotation, queued backlog stolen
// and re-dispatched EXACTLY ONCE to healthy hosts (re-dispatched
// submissions are exempt from the dispatch fault sites, so a request
// can be re-routed at most once per stall and once per drop). When
// quarantines leave a single healthy host the cluster degrades to
// single-host routing (sticky `degraded_single_host` flag); when none
// remain, the bottom rung force-recovers one host and routes there
// (`forced_routes`) — requests are never dropped.
//
// Crash tolerance (DESIGN.md §5.7) extends the ladder to hosts that
// DIE rather than stall:
//   * Failure detection — the core's per-host leases (LeaseDetector). A
//     host renews by making completion progress or answering a liveness
//     probe; a non-responsive host misses its lease deadline, and after
//     `missed_to_death` consecutive misses the sweep declares it dead.
//     A background sweeper thread ticks every `sweep_period` so an IDLE
//     cluster notices dead hosts too.
//   * Exactly-once orphan recovery — declared death steals both the
//     dead host's queued backlog AND its in-flight set. In-flight
//     orphans are re-dispatched through the core's OrphanLedger, keyed on
//     the submission's idempotency key: the dispatcher always finishes a
//     dequeued task, so the dead host eventually emits a LATE (zombie)
//     completion for each orphan — drain() surfaces exactly one of
//     {zombie, re-dispatched copy} per key and suppresses the other as
//     kDuplicateSuppressed. Property: every submission completes
//     exactly once XOR is shed with a typed outcome — never zero,
//     never twice.
//   * Rejoin — quarantine is no longer sticky. Unhealthy hosts get
//     half-open liveness probes on a full-jitter util::Backoff
//     schedule; a probe that answers (stall cleared, or crashed host
//     restart()ed) rehydrates the host's warm pools for its top-k
//     recently-invoked functions (Platform::rehydrate — post-failover
//     traffic resumes kWarm/kHorse, not kCold) and only THEN returns
//     it to rotation. `hosts_quarantined` is a gauge (the hosts out of
//     rotation right now); `degraded_single_host` stays sticky as a
//     "this happened" flag but no longer blocks recovery.
//
// Fault sites: cluster.host_stall, cluster.host_crash (see host.hpp)
// and cluster.dispatch_drop — a modelled lost dispatch, detected and
// retried through the policy immediately (the retry is the
// re-dispatch; `dispatch_drops` counts the losses).
//
// Lock hierarchy (extends the platform's, left before right):
//   health sweep mutex → cluster dispatch mutex → host dispatcher worker
//   mutex → [Platform: shard → resume → manager → queue → load]
// The health mutex guards the core's LeaseDetector and OrphanLedger, the
// dispatch mutex its Router; counters() takes neither (the core's
// counters are relaxed atomics). The health mutex also directly precedes the platform shard mutexes on
// the rejoin path (rehydration runs under the sweep so a half-rejoined
// host is never routed to); the host's in-flight set has its own leaf
// mutex below all of these. drain() polls host counters with no lock
// held while waiting; its merge takes the health mutex only to consult
// the dedup ledger.
//
// Thread-safety: submit() from any thread; drain() single-drainer, and
// it must not run concurrently with submit(): it polls the hosts'
// completed() counters until every accepted submission is accounted
// for, then takes their outcomes. register/provision/ensure_snapshot/
// advance_time are setup/driver calls, not hot paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/decision_core.hpp"
#include "cluster/host.hpp"
#include "cluster/load_balance.hpp"
#include "faas/platform.hpp"
#include "faas/submission.hpp"
#include "metrics/histogram.hpp"

namespace horse::cluster {

enum class DispatchMode : std::uint8_t { kPush, kPull };

[[nodiscard]] constexpr std::string_view to_string(DispatchMode mode) noexcept {
  return mode == DispatchMode::kPush ? "push" : "pull";
}

[[nodiscard]] util::Expected<DispatchMode> parse_dispatch_mode(
    std::string_view name);

/// Cluster-level admission control. Enabled by default, but it only acts
/// on submissions that carry a deadline — deadline-free traffic is never
/// shed, so pre-overload callers see byte-identical behaviour.
struct ClusterAdmissionConfig {
  bool enabled = true;
  /// CoDel-style sojourn cap forwarded to every host's dispatcher: tasks
  /// queued longer than this expire at dequeue. 0 disables (per-task
  /// deadlines are always honoured regardless).
  util::Nanos max_sojourn = 0;
};

struct ClusterConfig {
  std::size_t num_hosts = 1;
  /// Worker slots per host; 0 = max(2, platform.num_cpus / 2).
  std::size_t workers_per_host = 0;
  DispatchMode dispatch = DispatchMode::kPush;
  PolicyKind policy = PolicyKind::kRoundRobin;
  /// Shared pull-queue bound; producers block when full (backpressure).
  std::size_t pull_queue_capacity = 4096;
  /// Submissions between health sweeps (drain always sweeps too).
  std::size_t health_check_interval = 64;
  ClusterAdmissionConfig admission;
  FailureDetectorConfig health;
  /// Per-host platform template; host i runs it with seed + i*7919.
  faas::PlatformConfig platform;
};

/// Cluster-level lifetime counters (host counters live on the hosts).
struct ClusterCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Stall faults fired across hosts (cluster.host_stall).
  std::uint64_t host_stalls = 0;
  /// GAUGE: hosts currently out of rotation (quarantined or declared
  /// dead), counted from the hosts' own health flags at read time. A
  /// half-open probe rejoin or a forced route brings it down —
  /// quarantine is no longer sticky.
  std::uint64_t hosts_quarantined = 0;
  /// Backlog submissions re-routed off quarantined hosts (each exactly
  /// once per stall).
  std::uint64_t redispatched = 0;
  /// cluster.dispatch_drop faults fired (each retried exactly once).
  std::uint64_t dispatch_drops = 0;
  /// Times the cluster found ZERO healthy hosts and force-recovered one.
  std::uint64_t forced_routes = 0;
  // --- overload control ----------------------------------------------------
  /// Submissions shed at admission (estimated queue delay already past the
  /// deadline's slack, pull queue full, or a spurious-shed fault). Every
  /// shed produces a typed outcome in drain(); completed + shed covers
  /// every submission.
  std::uint64_t shed = 0;
  /// Subset of `shed`: the bounded pull queue refused (try_push).
  std::uint64_t shed_queue_full = 0;
  /// Tasks expired at dequeue by host dispatchers (deadline / sojourn).
  /// These DO count toward `completed` (the host recorded the outcome).
  std::uint64_t expired = 0;
  /// admission.spurious_shed fault fires (each one also counts in shed).
  std::uint64_t spurious_sheds = 0;
  // --- crash tolerance -----------------------------------------------------
  /// Host crash events (cluster.host_crash fires + bench crash() calls).
  std::uint64_t host_crashes = 0;
  /// Lease deadlines missed by non-responsive hosts (detector ticks).
  std::uint64_t missed_heartbeats = 0;
  /// Hosts the failure detector declared dead (cumulative).
  std::uint64_t hosts_declared_dead = 0;
  /// Half-open liveness probes sent to unhealthy hosts.
  std::uint64_t probes = 0;
  /// Hosts returned to rotation by a successful probe (cumulative).
  std::uint64_t hosts_rejoined = 0;
  /// In-flight submissions re-dispatched off declared-dead hosts. Each
  /// adds one EXTRA expected outcome (the zombie completion) to drain's
  /// accounting; the duplicate is suppressed at merge.
  std::uint64_t orphans_redispatched = 0;
  /// Late zombie completions dropped by the dedup ledger
  /// (kDuplicateSuppressed — counted, typed, never surfaced).
  std::uint64_t duplicates_suppressed = 0;
  /// Sandboxes restored into warm pools by rejoin rehydration (summed
  /// over host platforms).
  std::uint64_t rehydrated_sandboxes = 0;
  /// Sticky: the quarantine ladder reached single-host routing ("this
  /// happened" flag; does NOT block rejoin).
  bool degraded_single_host = false;
};

struct HostStats {
  HostId host = 0;
  bool healthy = true;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t policy_decisions = 0;
  std::uint64_t stall_faults = 0;
  /// Crash model: is the host currently dead, and how often has it died.
  bool crashed = false;
  std::uint64_t crash_faults = 0;
  std::size_t queued = 0;
  std::size_t in_flight = 0;
  std::size_t free_slots = 0;
  /// Tasks this host expired at dequeue (deadline / sojourn cap).
  std::uint64_t expired = 0;
  /// The host's queue-delay EWMA the admission check reads.
  util::Nanos queueing_ewma = 0;
  /// Pooled warm sandboxes on the host (all functions).
  std::size_t pool_sandboxes = 0;
  /// Reserved-queue paused-sandbox occupancy (from the host platform's
  /// consistent control-plane snapshot).
  std::size_t ull_paused = 0;
  metrics::Histogram dispatch_latency;
};

struct ClusterStats {
  std::vector<HostStats> hosts;
  ClusterCounters counters;
  PolicyKind policy = PolicyKind::kRoundRobin;
  DispatchMode dispatch = DispatchMode::kPush;
};

class ClusterScheduler {
 public:
  explicit ClusterScheduler(ClusterConfig config);
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  [[nodiscard]] std::size_t num_hosts() const noexcept {
    return hosts_.size();
  }
  [[nodiscard]] Host& host(std::size_t index) { return *hosts_[index]; }
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

  /// Register the same function on every host. The factory is invoked
  /// once per host (each Platform needs its own workload instance — a
  /// function's implementation state is only serialised within one
  /// host). All hosts must agree on the id.
  [[nodiscard]] util::Expected<faas::FunctionId> register_function(
      const std::function<faas::FunctionSpec()>& make_spec);

  /// Fan-out to every host.
  util::Status provision(faas::FunctionId function, std::size_t count);
  util::Status ensure_snapshot(faas::FunctionId function);
  void advance_time(util::Nanos delta);

  /// Fire-and-collect (push: policy + host queue; pull: shared queue).
  /// `deadline` is an absolute monotonic timestamp (0 = none). Deadline
  /// submissions pass admission control — when the cluster's estimated
  /// queue delay already exceeds the remaining slack (or the pull queue
  /// is full) the submission is shed with a typed outcome instead of
  /// queueing toward certain expiry.
  void submit(faas::FunctionId function, workloads::Request request,
              faas::StartMode mode, util::Nanos deadline = 0);

  /// Register the same workflow chain on every host (stage ids must
  /// already agree across hosts — register_function guarantees that).
  /// All hosts must agree on the workflow id.
  [[nodiscard]] util::Expected<faas::WorkflowId> register_workflow(
      const faas::WorkflowSpec& spec);

  /// Submit a workflow chain as ONE routed unit: one submission, one
  /// idempotency key, one deadline. The chain is dispatched under its
  /// entry stage's identity; the executing host advances the hop cursor
  /// as stages complete, so orphan recovery re-dispatches a mid-chain
  /// casualty from its frontier and never re-executes completed stages.
  void submit_chain(faas::WorkflowId workflow, workloads::Request request,
                    faas::StartMode mode, util::Nanos deadline = 0);

  /// Wait for every accepted submission and take the outcomes (from all
  /// hosts; order is per-host arbitrary — sort by .seq if needed).
  /// Runs health sweeps while waiting so stalled hosts cannot wedge it.
  [[nodiscard]] std::vector<faas::SubmissionOutcome> drain();

  /// Quarantine stalled hosts and re-dispatch their backlog (also runs
  /// periodically from submit() and from drain()).
  void check_health();

  [[nodiscard]] ClusterCounters counters() const;
  /// Recomputed from host state at call time (nothing cached).
  [[nodiscard]] ClusterStats stats() const;

  /// Detection latency of the most recent declared death: declared-dead
  /// instant minus the host's crashed_at() (0 = no death declared yet).
  [[nodiscard]] util::Nanos last_detection_latency() const noexcept {
    return last_detection_latency_.load(std::memory_order_relaxed);
  }

 private:
  /// Common front door for submit()/submit_chain(): assign seq + key,
  /// run the periodic health check, apply admission (spurious-shed fault
  /// site, deadline-slack shed), then dispatch.
  void admit_and_dispatch(faas::Submission task);
  /// Pull: the shared queue. Push: the router's host, under the dispatch
  /// mutex; a forced route force-recovers its host first.
  void dispatch(faas::Submission task);
  /// Record a typed shed outcome (never a silent drop): the submission is
  /// refused here, at the cluster front door, and its outcome surfaces
  /// from drain() like any completion.
  void record_shed(const faas::Submission& task, faas::SubmissionReject reject,
                   std::string_view detail);
  /// Re-dispatch a backlog stolen off an out-of-rotation host. Exactly
  /// once: the steal removed the tasks from the host atomically, and the
  /// redispatched flag exempts them from the drop/stall fault sites on
  /// the way back in.
  void redispatch_backlog(std::vector<faas::Submission> backlog);
  /// Declared-death side effects (health_mutex_ held): mark the host
  /// dead and steal its backlog under dispatch_mutex_, then steal its
  /// in-flight set and re-dispatch the backlog and the orphans the ledger
  /// adopts.
  void declare_dead_locked(Host& host, util::Nanos now);
  /// Successful half-open probe (health_mutex_ held): rehydrate warm
  /// pools, then return the host to rotation.
  void rejoin_locked(Host& host);

  ClusterConfig config_;
  std::unique_ptr<faas::SharedTaskQueue> pull_queue_;  // pull mode only
  std::vector<std::unique_ptr<Host>> hosts_;

  mutable std::mutex health_mutex_;
  mutable std::mutex dispatch_mutex_;
  // The decision core (decision_core.hpp), each part driven under the
  // mutex that serialises its decisions.
  Router router_;           // dispatch_mutex_
  LeaseDetector detector_;  // health_mutex_
  OrphanLedger ledger_;     // health_mutex_
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> redispatched_{0};
  std::atomic<std::uint64_t> dispatch_drops_{0};

  // Shed bookkeeping: outcomes buffered here until drain() merges them
  // with host completions. shed_count_ is an atomic so drain's
  // termination check (completed + shed >= submitted) needs no lock.
  mutable std::mutex shed_mutex_;
  std::vector<faas::SubmissionOutcome> shed_outcomes_;
  std::atomic<std::uint64_t> shed_count_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> spurious_sheds_{0};

  // --- crash tolerance (DESIGN.md §5.7) ------------------------------------
  std::atomic<std::uint64_t> hosts_declared_dead_{0};
  std::atomic<std::uint64_t> hosts_rejoined_{0};
  std::atomic<util::Nanos> last_detection_latency_{0};

  /// Background sweeper: the time-based health-sweep fallback. Declared
  /// LAST so it stops before any state it sweeps is torn down; the dtor
  /// additionally stops it before closing the pull queue.
  std::jthread sweeper_;
};

}  // namespace horse::cluster
