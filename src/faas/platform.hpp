// Platform: the public facade of the library — a single-node FaaS control
// plane over the scheduler/VMM substrates, speaking the paper's four start
// strategies.
//
//   kCold    — build a sandbox from scratch (modelled guest boot + real
//              scheduler start), then run the function.
//   kRestore — materialise the sandbox from a snapshot (real memory-image
//              copy + modelled device re-init), FaaSnap-style.
//   kWarm    — take a paused sandbox from the warm pool and resume it
//              through the *vanilla* resume path.
//   kHorse   — take a paused uLL sandbox and resume it through the HORSE
//              fast path (𝒫²𝒮ℳ + coalesced load update).
//
// Execution is in-process: the sandbox's vCPUs are really enqueued on the
// scheduler substrate and the function body really executes; what is
// modelled (boot, device re-init, dispatch plumbing) is itemised on the
// returned record so experiments can account modelled vs measured time.
//
// After each invocation the sandbox is re-paused and returned to the warm
// pool (keep-alive); pausing always goes through a HORSE engine so uLL
// sandboxes are immediately fast-path-ready again. A re-park that fails
// (engine pause error, pool at its per-function cap) is an eviction: the
// sandbox is torn down and counted, and the invocation whose body already
// ran still succeeds.
//
// ── Sharded control plane ───────────────────────────────────────────────
//
// The control plane is sharded two ways (see DESIGN.md, "Sharded control
// plane"):
//
//   * per-FUNCTION shards — FunctionId hashes to one ControlShard that
//     owns the function's warm-pool partition, snapshot cache, keep-alive
//     history, RNG stream, and counters. Invocations of functions on
//     different shards never touch the same mutex; invocations of the
//     SAME function serialise on their shard, which is also what keeps a
//     function's workload-implementation state single-threaded.
//   * per-QUEUE resume engines — one HorseResumeEngine per reserved
//     ull_runqueue, all sharing one UllRunQueueManager (which owns the
//     engine-per-queue map). HORSE resumes targeting different reserved
//     queues proceed under different step-② locks.
//
// Thread-safety: invoke / provision / ensure_snapshot / advance_time /
// counters may be called from any number of threads. Lock hierarchy
// (never acquire right-to-left):
//
//   shard mutex → engine resume_lock_ → ull-manager mutex → queue lock
//                                                         → load lock
//
// Accessors returning references to substrate objects (registry,
// topology, engines, ull_manager) hand out objects that are themselves
// internally synchronised for the operations the platform performs;
// instrumentation that walks them (e.g. reading queue contents) should
// quiesce invokers first, as before.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/horse_resume.hpp"
#include "faas/admission.hpp"
#include "faas/keepalive_policy.hpp"
#include "faas/registry.hpp"
#include "faas/warm_pool.hpp"
#include "metrics/contention.hpp"
#include "sched/topology.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vmm/boot.hpp"
#include "vmm/snapshot.hpp"

namespace horse::faas {

enum class StartMode : std::uint8_t { kCold, kRestore, kWarm, kHorse };

[[nodiscard]] constexpr std::string_view to_string(StartMode mode) noexcept {
  switch (mode) {
    case StartMode::kCold: return "cold";
    case StartMode::kRestore: return "restore";
    case StartMode::kWarm: return "warm";
    case StartMode::kHorse: return "horse";
  }
  return "unknown";
}

/// Bounded retry ladder for failed starts. A failed start attempt (pool
/// miss, resume failure, corrupt snapshot) demotes the invocation one rung
/// colder — kHorse → kWarm → kRestore → kCold — instead of surfacing the
/// error, up to `max_attempts` rungs with a modelled, jittered backoff
/// between them. Per-sandbox health is tracked across invocations:
/// a pooled sandbox whose resume fails `quarantine_threshold` times in a
/// row is quarantined (untracked, destroyed, never re-pooled).
struct DegradationPolicy {
  bool enabled = true;
  /// Total start attempts per invocation (first try included).
  std::size_t max_attempts = 4;
  /// Consecutive resume failures before a pooled sandbox is evicted.
  std::size_t quarantine_threshold = 2;
  /// Base/cap of the modelled capped full-jitter backoff between rungs
  /// (util::Backoff): attempt k draws uniformly from
  /// (0, min(cap, base * 2^(k-1))] on the shard's seeded RNG. Purely
  /// modelled (recorded, never slept).
  util::Nanos retry_backoff_base = 50 * util::kMicrosecond;
  util::Nanos retry_backoff_cap = 10 * util::kMillisecond;
};

struct PlatformConfig {
  std::size_t num_cpus = 8;
  vmm::VmmProfile profile = vmm::VmmProfile::firecracker();
  core::HorseConfig horse;
  WarmPoolConfig warm_pool;
  /// Derive per-function keep-alive windows from idle-time histograms
  /// (Shahrad et al. ATC'20) instead of the fixed warm_pool.keep_alive.
  bool adaptive_keep_alive = false;
  KeepAlivePolicyConfig keep_alive_policy;
  /// Generic warm-start dispatch plumbing (request routing, sandbox
  /// lookup) charged to cold/restore/warm starts; the HORSE fast path
  /// bypasses it. See sim/cost_model.hpp for the derivation from Table 1.
  util::Nanos warm_dispatch_overhead = 820;
  DegradationPolicy degradation;
  /// Host-level overload control (shard high-water, retry budget,
  /// circuit breaker); every gate defaults off — see AdmissionConfig.
  AdmissionConfig admission;
  std::uint64_t seed = 1;
  /// Number of per-function control-plane shards; 0 = max(8, num_cpus).
  std::size_t control_shards = 0;
};

/// Lifetime invocation counters. Per-mode counts are by the mode the
/// invocation actually COMPLETED with (after any ladder demotions), so
/// cold+restore+warm+horse always sums to invocations.
struct PlatformCounters {
  std::uint64_t invocations = 0;
  std::uint64_t cold = 0;
  std::uint64_t restore = 0;
  std::uint64_t warm = 0;
  std::uint64_t horse = 0;
  std::uint64_t failed = 0;
  // --- degradation-ladder counters ---------------------------------------
  /// Individual rung demotions taken (an invocation may take several).
  std::uint64_t rung_fallbacks = 0;
  /// Invocations that completed at a colder mode than requested.
  std::uint64_t degraded_invocations = 0;
  /// Pooled sandboxes evicted after repeated resume failures.
  std::uint64_t sandboxes_quarantined = 0;
  /// Sandboxes properly torn down after the warm pool rejected them
  /// (per-function cap) — previously they were silently dropped.
  std::uint64_t pool_overflow_destroyed = 0;
  // --- overload-control counters ------------------------------------------
  /// Invocations refused because the shard was at its high-water mark.
  std::uint64_t shard_overload_rejections = 0;
  /// Invocations refused because the function's breaker was open.
  std::uint64_t breaker_rejections = 0;
  /// Breaker closed/half-open → open transitions.
  std::uint64_t breaker_opens = 0;
  /// Ladder escalations to kRestore/kCold refused: retry budget empty.
  std::uint64_t budget_denied_escalations = 0;
  /// Invocations refused because their deadline had already passed when
  /// the shard picked them up.
  std::uint64_t deadline_rejections = 0;
  // --- crash-tolerance counters --------------------------------------------
  /// Sandboxes restored into the warm pool by rehydrate() (warm rejoin).
  std::uint64_t rehydrated_sandboxes = 0;
  // --- workflow-chain counters ---------------------------------------------
  /// Chains that ran to an outcome through invoke_chain (success, gated
  /// early-exit, or failure mid-way — each counted once, on the shard of
  /// the stage the chain entered at).
  std::uint64_t chains_invoked = 0;
  /// Total chain stages whose bodies actually executed.
  std::uint64_t chain_stages_executed = 0;
  /// Fused segments executed as a single resume (each also counts as one
  /// invocation, attributed to its entry stage's mode).
  std::uint64_t fused_segments = 0;
  /// Chain stages dispatched per-stage (planner split, or fallback after
  /// a fused segment failed to start).
  std::uint64_t chain_fallback_stages = 0;
  /// Chains that completed early on a kGated edge (success outcome).
  std::uint64_t chains_gated_early = 0;

  PlatformCounters& operator+=(const PlatformCounters& other) noexcept {
    invocations += other.invocations;
    cold += other.cold;
    restore += other.restore;
    warm += other.warm;
    horse += other.horse;
    failed += other.failed;
    rung_fallbacks += other.rung_fallbacks;
    degraded_invocations += other.degraded_invocations;
    sandboxes_quarantined += other.sandboxes_quarantined;
    pool_overflow_destroyed += other.pool_overflow_destroyed;
    shard_overload_rejections += other.shard_overload_rejections;
    breaker_rejections += other.breaker_rejections;
    breaker_opens += other.breaker_opens;
    budget_denied_escalations += other.budget_denied_escalations;
    deadline_rejections += other.deadline_rejections;
    rehydrated_sandboxes += other.rehydrated_sandboxes;
    chains_invoked += other.chains_invoked;
    chain_stages_executed += other.chain_stages_executed;
    fused_segments += other.fused_segments;
    chain_fallback_stages += other.chain_fallback_stages;
    chains_gated_early += other.chains_gated_early;
    return *this;
  }
};

/// The next-colder rung of the start ladder (kCold maps to itself).
[[nodiscard]] constexpr StartMode next_colder(StartMode mode) noexcept {
  switch (mode) {
    case StartMode::kHorse: return StartMode::kWarm;
    case StartMode::kWarm: return StartMode::kRestore;
    case StartMode::kRestore: return StartMode::kCold;
    case StartMode::kCold: return StartMode::kCold;
  }
  return StartMode::kCold;
}

struct InvocationRecord {
  /// The mode the invocation actually completed with.
  StartMode mode = StartMode::kCold;
  /// The mode the caller asked for (== mode unless the ladder demoted).
  StartMode requested = StartMode::kCold;
  /// Ladder rungs descended before the start succeeded.
  std::uint32_t fallbacks = 0;
  /// Modelled, jittered retry backoff accumulated across rungs (included
  /// in init_time / init_modelled).
  util::Nanos retry_backoff = 0;
  /// Total sandbox-initialization latency (modelled + measured parts).
  util::Nanos init_time = 0;
  /// Modelled share of init_time (boot / device re-init / dispatch).
  util::Nanos init_modelled = 0;
  /// Measured function execution time.
  util::Nanos exec_time = 0;
  /// Per-step resume timing (warm/horse modes only).
  vmm::ResumeBreakdown resume;
  workloads::Response response;

  [[nodiscard]] double init_fraction() const noexcept {
    const util::Nanos total = init_time + exec_time;
    return total == 0 ? 0.0
                      : static_cast<double>(init_time) /
                            static_cast<double>(total);
  }
};

/// Per-invocation overload-control context for Platform::invoke. `now`
/// and `deadline` flow in; `reject` flows out: when invoke fails with a
/// non-kNone reject the refusal came from overload control (breaker,
/// shard high-water, expired deadline), not from the function itself —
/// callers map it onto SubmissionOutcome::reject so no refusal is silent.
struct InvokeControls {
  /// Monotonic timestamp the caller observed (deadline checks and breaker
  /// cooldowns are evaluated against it; the platform never reads a clock
  /// for these, keeping SimCluster reproduction exact).
  util::Nanos now = 0;
  /// Absolute monotonic deadline; 0 = none. For chains this is the ONE
  /// deadline the whole chain carries: invoke_chain re-checks the
  /// remaining slack before every hop against `now` plus the time the
  /// chain has measurably consumed so far.
  util::Nanos deadline = 0;
  /// OUT: why overload control refused (kNone on success or on ordinary
  /// invocation failure).
  SubmissionReject reject = SubmissionReject::kNone;
  /// IN (invoke_chain only): hop cursor — the first chain stage this call
  /// still has to run. 0 for a fresh chain; an orphan-recovery
  /// re-dispatch passes the frontier its dead host had reached. OUT: left
  /// at the frontier on return, so a failed chain reports exactly where
  /// it stopped.
  std::uint32_t hop = 0;
  /// OUT (invoke_chain only): stages completed by THIS call
  /// (hop_on_return - hop_on_entry).
  std::uint32_t hops_completed = 0;
  /// Optional (invoke_chain only): called after each stage completes with
  /// the advanced cursor and the function at that cursor (the last
  /// stage's id again once the chain is done). Invoked while the
  /// executing shard's mutex is held — the callback must only touch leaf
  /// state (the cluster Host updates its in-flight ledger entry, a leaf
  /// lock, so orphan recovery re-dispatches from the frontier).
  std::function<void(std::uint32_t hop, FunctionId function)> on_hop;
};

/// Outcome of invoke_chain: one aggregated InvocationRecord (the chain's
/// latency decomposition: first segment's start cost, summed exec and any
/// later segments' start costs, final stage's response) plus chain-shaped
/// accounting the per-function record cannot express.
struct ChainRecord {
  InvocationRecord record;
  /// The hop cursor this call started from.
  std::uint32_t first_hop = 0;
  /// Stages whose bodies ran in this call.
  std::uint32_t stages_executed = 0;
  /// How many fused segments (multi-stage single-resume runs) ran.
  std::uint32_t fused_segments = 0;
  /// Stages that went through ordinary per-stage dispatch instead
  /// (planner split or fused-start fallback).
  std::uint32_t per_stage_dispatches = 0;
  /// The chain stopped early on a kGated edge (success: the gating
  /// stage's response is the chain's response).
  bool gated_early = false;
};

class Platform;

/// Consistent observability snapshot — see
/// Platform::control_plane_snapshot().
struct ControlPlaneSnapshot {
  /// Shard-mutex acquisition accounting, summed across shards.
  metrics::ContentionStats shard_contention;
  /// Pooled-sandbox count per shard (index = shard), read under the same
  /// per-shard hold as that shard's contention contribution.
  std::vector<std::size_t> shard_pool_occupancy;
  /// Reserved-queue occupancy + manager-mutex contention, one critical
  /// section (core::UllRunQueueManager::snapshot()).
  core::UllRunQueueManager::ManagerSnapshot ull;
};

/// Read-mostly view over the striped warm pool: each call routes to the
/// shard owning the function and takes that shard's lock, so callers keep
/// the pre-sharding `platform.warm_pool().available(fn)` idiom without
/// seeing a single pool object (there isn't one any more).
class ShardedWarmPoolView {
 public:
  [[nodiscard]] std::size_t available(FunctionId function) const;
  [[nodiscard]] std::size_t provisioned_floor(FunctionId function) const;
  [[nodiscard]] util::Nanos keep_alive_for(FunctionId function) const;
  void set_keep_alive_override(FunctionId function, util::Nanos keep_alive);
  /// Pooled sandboxes across all shards (sums per-shard totals).
  [[nodiscard]] std::size_t total() const;

 private:
  friend class Platform;
  explicit ShardedWarmPoolView(Platform& platform) : platform_(platform) {}
  Platform& platform_;
};

/// Same idea for the hybrid-histogram keep-alive policy: a function's idle
/// history lives wholly in its owning shard.
class KeepAlivePolicyView {
 public:
  [[nodiscard]] KeepAliveDecision decide(FunctionId function) const;
  [[nodiscard]] std::size_t sample_count(FunctionId function) const;
  [[nodiscard]] std::size_t oob_count(FunctionId function) const;
  [[nodiscard]] const KeepAlivePolicyConfig& config() const noexcept;

 private:
  friend class Platform;
  explicit KeepAlivePolicyView(Platform& platform) : platform_(platform) {}
  Platform& platform_;
};

class Platform {
 public:
  explicit Platform(PlatformConfig config = {});

  [[nodiscard]] FunctionRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] ShardedWarmPoolView& warm_pool() noexcept { return pool_view_; }
  [[nodiscard]] sched::CpuTopology& topology() noexcept { return topology_; }
  [[nodiscard]] vmm::ResumeEngine& vanilla_engine() noexcept { return *vanilla_; }
  /// The first per-queue HORSE engine (the only one when
  /// horse.num_ull_runqueues == 1; see horse_engines() for the rest).
  [[nodiscard]] core::HorseResumeEngine& horse_engine() noexcept {
    return *horse_engines_.front();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<core::HorseResumeEngine>>&
  horse_engines() const noexcept {
    return horse_engines_;
  }
  [[nodiscard]] core::UllRunQueueManager& ull_manager() noexcept {
    return *ull_manager_;
  }
  [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }

  /// Provisioned concurrency: create, start once, pause and pool `count`
  /// sandboxes for `function`, and set the pool's eviction floor.
  util::Status provision(FunctionId function, std::size_t count);

  /// Make sure a snapshot exists for restore-mode starts.
  util::Status ensure_snapshot(FunctionId function);

  /// Trigger one invocation with the given start strategy. Takes the
  /// request by value: callers that move avoid every copy down to the
  /// workload implementation.
  [[nodiscard]] util::Expected<InvocationRecord> invoke(
      FunctionId function, workloads::Request request, StartMode mode);

  /// Overload-aware invoke: checks the deadline, the shard high-water
  /// mark, and the function's circuit breaker before starting, and gates
  /// ladder escalation on the retry budget. On an overload refusal the
  /// returned status is not-OK and controls.reject names the reason.
  [[nodiscard]] util::Expected<InvocationRecord> invoke(
      FunctionId function, workloads::Request request, StartMode mode,
      InvokeControls& controls);

  /// Invoke a registered workflow chain as one routed unit, starting from
  /// controls.hop. The fusion planner partitions the remaining stages
  /// into maximal runs of adjacent uLL-fusable stages; each fused run
  /// executes as a SINGLE warm/horse resume (one pool take, one resume
  /// prologue, stage outputs handed off in-sandbox), and every other
  /// stage runs as a one-stage segment — exactly what invoke() runs —
  /// through the full admission machinery. Remaining deadline slack is
  /// re-checked before every hop; a mid-chain refusal or failure surfaces
  /// with controls.hop at the frontier so the caller can re-dispatch
  /// without re-executing completed stages. The resume ladder demotes a
  /// failing SEGMENT, never the whole chain.
  [[nodiscard]] util::Expected<ChainRecord> invoke_chain(
      WorkflowId workflow, workloads::Request request, StartMode mode,
      InvokeControls& controls);

  /// Convenience overload with default controls (no deadline, hop 0).
  [[nodiscard]] util::Expected<ChainRecord> invoke_chain(
      WorkflowId workflow, workloads::Request request, StartMode mode);

  /// Logical platform clock for keep-alive accounting; advanced by the
  /// caller (experiments drive it from their own schedule).
  [[nodiscard]] util::Nanos logical_now() const noexcept {
    return logical_now_.load(std::memory_order_acquire);
  }
  void advance_time(util::Nanos delta);

  /// The hybrid-histogram keep-alive policy (consulted on advance_time
  /// when config().adaptive_keep_alive is set; always records arrivals).
  [[nodiscard]] KeepAlivePolicyView& keep_alive_policy() noexcept {
    return keep_alive_view_;
  }

  /// Lifetime counters, aggregated across shards.
  [[nodiscard]] PlatformCounters counters() const;

  /// Degradation counters aggregated across the per-queue HORSE engines.
  [[nodiscard]] core::ResumeDegradationStats resume_degradation_stats() const;

  // --- overload control ---------------------------------------------------

  /// The host-wide retry-budget bucket (atomic; safe from any thread).
  [[nodiscard]] RetryBudget& retry_budget() noexcept { return retry_budget_; }
  [[nodiscard]] const RetryBudget& retry_budget() const noexcept {
    return retry_budget_;
  }
  /// Current breaker state for `function` (kClosed when no breaker exists
  /// yet — a function with no failures has an implicitly closed breaker).
  [[nodiscard]] CircuitBreaker::State breaker_state(FunctionId function) const;
  /// Aggregated breaker stats for `function` (zeros when none exists).
  [[nodiscard]] CircuitBreaker::Stats breaker_stats(FunctionId function) const;

  // --- crash tolerance / warm rejoin ---------------------------------------

  /// Crash model: destroy every pooled warm sandbox on every shard — a
  /// host that dies loses its warm state wholesale. Provisioned floors
  /// and keep-alive overrides survive (policy, not state), so a later
  /// rehydrate() can build the pools back up.
  void clear_warm_pools();

  /// Warm-rejoin rehydration: top `function`'s warm pool back up to
  /// `target` paused sandboxes by restoring from its snapshot (taken
  /// first if none exists) — the kRestore recipe, ending in the pool
  /// instead of an invocation. Idempotent: a pool already at/above
  /// `target` is left untouched, so rejoin after a mere stall (warm state
  /// intact) restores nothing.
  util::Status rehydrate(FunctionId function, std::size_t target);

  /// The up-to-k most recently invoked registered functions, most recent
  /// first, ranked by the keep-alive history's last-arrival time. This is
  /// what warm rejoin rehydrates: the functions traffic was actually
  /// routing here before the crash.
  [[nodiscard]] std::vector<FunctionId> recently_invoked(std::size_t k) const;

  // --- shard observability ------------------------------------------------

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(FunctionId function) const noexcept {
    return static_cast<std::size_t>(function) % shards_.size();
  }
  /// Shard-mutex acquisition accounting, summed across shards.
  [[nodiscard]] metrics::ContentionStats shard_contention() const;
  /// Per-shard pooled-sandbox occupancy (index = shard).
  [[nodiscard]] std::vector<std::size_t> shard_pool_occupancy() const;
  /// Every observability counter a reporting row needs, through one
  /// accessor: each shard is visited ONCE (contention + pool occupancy
  /// under a single hold of its mutex) and the ull manager contributes
  /// its own single-critical-section snapshot. shard_contention() +
  /// shard_pool_occupancy() + ull_manager().occupancy()/contention()
  /// called separately can interleave with invocations and produce rows
  /// whose columns describe different instants; CSV emitters
  /// (macro_throughput) and the cluster's per-host stats use this.
  [[nodiscard]] ControlPlaneSnapshot control_plane_snapshot() const;

 private:
  friend class ShardedWarmPoolView;
  friend class KeepAlivePolicyView;

  /// Everything one function-shard owns. The shard mutex serialises all
  /// control-plane work for the functions hashing here; substrate work
  /// done while it is held (engine calls) nests per the lock hierarchy in
  /// the file comment.
  struct ControlShard {
    ControlShard(const PlatformConfig& config, std::uint64_t seed_base)
        : boot(config.profile, seed_base + 1),
          snapshots(config.profile, seed_base + 2),
          pool(config.warm_pool),
          keep_alive(config.keep_alive_policy),
          rng(seed_base + 3) {}

    mutable std::mutex mutex;
    mutable metrics::ContentionMeter meter;
    vmm::BootModel boot;
    vmm::SnapshotManager snapshots;
    WarmPool pool;
    HybridHistogramPolicy keep_alive;
    std::unordered_map<FunctionId, vmm::Snapshot> snapshot_store;
    /// Consecutive resume failures per pooled sandbox (erased on success,
    /// quarantine, or eviction).
    std::unordered_map<sched::SandboxId, std::size_t> resume_failures;
    /// Per-function circuit breakers (created on first failure; guarded by
    /// the shard mutex like everything else here — no new locks).
    std::unordered_map<FunctionId, CircuitBreaker> breakers;
    PlatformCounters counters;
    util::Xoshiro256 rng;
    /// Invocations currently inside (or queued on the mutex of) this
    /// shard; atomic so the high-water check runs BEFORE blocking on the
    /// mutex — that pre-lock rejection is the whole point, an overloaded
    /// shard must refuse without making the caller wait in its convoy.
    std::atomic<std::size_t> inflight{0};
    /// Pre-lock rejection tallies (atomics: counted without the mutex,
    /// folded into PlatformCounters by Platform::counters()).
    std::atomic<std::uint64_t> overload_rejections{0};
    std::atomic<std::uint64_t> deadline_rejections{0};
  };

  [[nodiscard]] ControlShard& shard(FunctionId function) {
    return *shards_[shard_of(function)];
  }
  [[nodiscard]] const ControlShard& shard(FunctionId function) const {
    return *shards_[shard_of(function)];
  }

  /// The HORSE engine a shard prefers for starts/pauses (round-robin over
  /// the per-queue engines; the RESUME engine is always looked up from
  /// the sandbox's queue assignment instead).
  [[nodiscard]] core::HorseResumeEngine& horse_affine(
      std::size_t shard_index) noexcept {
    return *horse_engines_[shard_index % horse_engines_.size()];
  }

  [[nodiscard]] std::unique_ptr<vmm::Sandbox> make_sandbox(
      const FunctionSpec& spec);
  util::Status pause_and_pool(ControlShard& shard, std::size_t shard_index,
                              FunctionId function,
                              std::unique_ptr<vmm::Sandbox> sandbox);
  util::Status ensure_snapshot_on(ControlShard& shard, std::size_t shard_index,
                                  FunctionId function);

  /// One rung: acquire + initialise a runnable sandbox for `mode`,
  /// filling the init/resume fields of `record`. Failure leaves the
  /// shard consistent (failed pooled sandboxes are health-tracked and
  /// re-pooled or quarantined) so the caller may try a colder rung.
  [[nodiscard]] util::Expected<std::unique_ptr<vmm::Sandbox>> try_start_on(
      ControlShard& shard, std::size_t shard_index, FunctionId function,
      const FunctionSpec& spec, StartMode mode, InvocationRecord& record);

  /// Stages [begin, end) of a linear chain, run in ONE sandbox: one
  /// admission and one start ladder for the entry stage stages[begin],
  /// every body back-to-back, then one re-park. A plain invoke() is the
  /// one-stage segment of its function, with no chain attached.
  struct Segment {
    const FunctionId* stages = nullptr;
    /// edges[i] plumbs stages[i] → stages[i+1]; read only with a chain.
    const WorkflowEdge* edges = nullptr;
    std::uint32_t num_stages = 1;
    std::uint32_t begin = 0;
    std::uint32_t end = 1;
    /// The chain this segment advances (hop cursor, on_hop, stage tallies)
    /// and the clock its one deadline is measured on; both null for a
    /// plain invoke().
    ChainRecord* chain = nullptr;
    const util::Stopwatch* chain_watch = nullptr;
  };

  /// Admission for one segment, charged to its entry stage's shard: the
  /// deadline and pre-lock high-water gates, then under the shard mutex
  /// the entry function's breaker, the retry-budget deposit, run_segment,
  /// and the per-mode counters (a segment books as ONE invocation). A
  /// typed refusal sets controls.reject.
  util::Expected<InvocationRecord> admit_segment(const Segment& segment,
                                                 workloads::Request& request,
                                                 StartMode mode,
                                                 InvokeControls& controls);

  /// The segment executor (entry shard mutex held): the start ladder for
  /// the entry stage, the stage bodies with the edge plumbing and hop
  /// advance between them, one pause_and_pool. Only the ENTRY stage
  /// records a keep-alive arrival — interior stages never take a pool
  /// slot, so counting them would inflate their pre-warm ranking. `now` is
  /// the admission timestamp breaker transitions are recorded at.
  util::Expected<InvocationRecord> run_segment(
      ControlShard& shard, std::size_t shard_index, const Segment& segment,
      workloads::Request& request, StartMode mode, util::Nanos now,
      InvokeControls& controls);

  /// Health bookkeeping for a pooled sandbox whose resume failed: strike
  /// its failure counter; quarantine (untrack + destroy) at the
  /// threshold, else hand it back to the pool for a later retry.
  void handle_resume_failure(ControlShard& shard, FunctionId function,
                             std::unique_ptr<vmm::Sandbox> sandbox);

  /// Tear a sandbox fully down (engine bookkeeping included) after the
  /// pool rejected or evicted it.
  void destroy_pooled(ControlShard& shard, vmm::Sandbox& sandbox);

  PlatformConfig config_;
  sched::CpuTopology topology_;
  // Destruction order (reverse of declaration): shards_ die first — their
  // pools hold the sandboxes the manager's indexes point into — then the
  // engines unbind from the manager, then the manager releases the
  // reserved queues.
  std::unique_ptr<core::UllRunQueueManager> ull_manager_;
  std::unique_ptr<vmm::ResumeEngine> vanilla_;
  std::vector<std::unique_ptr<core::HorseResumeEngine>> horse_engines_;
  FunctionRegistry registry_;
  std::vector<std::unique_ptr<ControlShard>> shards_;
  ShardedWarmPoolView pool_view_{*this};
  KeepAlivePolicyView keep_alive_view_{*this};
  std::atomic<sched::SandboxId> next_sandbox_id_{1};
  std::atomic<util::Nanos> logical_now_{0};
  /// Host-wide (all shards share it); a single atomic, so it sits outside
  /// the lock hierarchy entirely.
  RetryBudget retry_budget_;
};

}  // namespace horse::faas
