// One simulated cluster host: a whole single-host control plane
// (faas::Platform) plus its worker pool (cluster::Dispatcher, whose
// workers call run_task) and the minimal health state the cluster
// scheduler balances on.
//
// Health state is deliberately tiny and reconstructable (Dirigent's
// lesson: cluster orchestration state should be rebuildable from the
// hosts, not a second source of truth): a host carries only
//   * healthy_  — cleared when the scheduler quarantines it,
//   * stalled_  — set when the cluster.host_stall fault fires (the
//                 modelled "host stopped making progress"),
//   * dispatched_ / stall_count_ — monotonic counters.
// Everything else a policy or an observer needs (queue depth, in-flight,
// free slots, warm-pool occupancy, completions) is read fresh from the
// Dispatcher/Platform at snapshot time; the cluster caches none of it.
//
// Fault sites (compiled out with HORSE_FAULT_INJECTION=OFF):
//   * cluster.host_stall — probed on the push-mode submit path and, in
//     pull mode, at task pickup. Firing parks the host's workers after
//     their current task; queued work stays put until the scheduler's
//     health sweep quarantines the host and re-dispatches the backlog.
//   * cluster.host_crash — same probe points, but the host dies
//     wholesale: workers park, the warm pools are destroyed, and the
//     host stops answering probes until restart(). crash() itself is a
//     public method (not fault-gated) so release-build benches can kill
//     hosts too.
//
// Crash model: a crash cannot kill a worker mid-task — the dispatcher
// guarantees a dequeued task is always finished — so a task in flight at
// crash time completes anyway and surfaces as a LATE (zombie) outcome.
// The host therefore tracks its in-flight set (inflight_): the scheduler
// steals it at declared death, re-dispatches each orphan, and dedups the
// zombie's completion against the re-dispatched copy by idempotency key.
//
// Thread-safety: submit() under the cluster's dispatch lock; snapshot()
// and the health accessors from any thread; quarantine/crash/rejoin
// transitions are serialised by the scheduler's health sweep. inflight_
// has its own leaf mutex (worker threads and the health sweep touch it);
// it nests inside everything and takes nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/dispatcher.hpp"
#include "cluster/load_balance.hpp"
#include "faas/platform.hpp"
#include "faas/submission.hpp"
#include "metrics/histogram.hpp"

namespace horse::cluster {

class Host {
 public:
  /// `pull_queue` non-null puts the host's workers in pull mode (they
  /// drain the cluster's shared queue when idle); it must outlive the
  /// host and be close()d before destruction. `max_sojourn` is the
  /// dispatcher's CoDel-style queue-sojourn cap (0 = disabled).
  Host(HostId id, faas::PlatformConfig platform_config, std::size_t workers,
       faas::SharedTaskQueue* pull_queue, util::Nanos max_sojourn = 0);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] faas::Platform& platform() noexcept { return platform_; }
  [[nodiscard]] const faas::Platform& platform() const noexcept {
    return platform_;
  }

  /// Push-mode enqueue (cluster dispatch lock held). Probes the
  /// cluster.host_stall fault site before accepting.
  void submit(faas::Submission task);

  /// Policy decision view. `include_warm` fills warm_slots with the warm
  /// pool's availability for `function` (costs one shard lock); policies
  /// that never read warm_slots skip that cost.
  [[nodiscard]] HostSnapshot snapshot(faas::FunctionId function,
                                      bool include_warm) const;

  // --- health (see header comment for the state model) --------------------

  [[nodiscard]] bool healthy() const noexcept {
    return healthy_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool stalled() const noexcept {
    return stalled_.load(std::memory_order_acquire);
  }
  /// Scheduler-side quarantine: mark unhealthy, hand back the queued
  /// backlog for re-dispatch, and restart the workers so in-flight work
  /// (and any later forced routing) still completes.
  [[nodiscard]] std::vector<faas::Submission> quarantine();
  /// Degradation-ladder escape hatch: forcibly clear the stall (and any
  /// crash) and mark the host healthy again so traffic can be routed
  /// somewhere.
  void force_recover();

  // --- crash model ---------------------------------------------------------

  [[nodiscard]] bool crashed() const noexcept {
    return crashed_.load(std::memory_order_acquire);
  }
  /// Does the host answer a liveness probe right now? (The failure
  /// detector renews a host's lease on this; a crashed host flunks it.)
  [[nodiscard]] bool responsive() const noexcept { return !crashed(); }
  /// Kill the host wholesale: workers park after their current task, the
  /// warm pools are destroyed, probes fail. Public (not fault-gated) so
  /// release-build benches can kill hosts; the cluster.host_crash fault
  /// site calls this too.
  void crash();
  /// Bring a crashed host's process back: workers resume, probes answer
  /// again. The host stays OUT of rotation (healthy_ false if the
  /// scheduler declared it dead) until a half-open probe rejoins it.
  void restart();
  /// Failure-detector verdict: mark the host dead WITHOUT restarting its
  /// workers (unlike quarantine() — there is nothing to restart, the
  /// host is gone until restart()).
  void mark_dead();
  /// One half-open liveness probe: false while crashed; otherwise clears
  /// any stall, resumes the workers, and reports the host fit to rejoin.
  [[nodiscard]] bool probe();
  /// Steal the in-flight set (the tasks workers were executing when the
  /// host was declared dead). Each entry is a full Submission copy, ready
  /// to re-dispatch; late (zombie) completions of the originals are
  /// deduped by the scheduler's orphan ledger.
  [[nodiscard]] std::vector<faas::Submission> take_inflight();
  /// Warm rejoin: top the pools back up for the top-k most recently
  /// invoked functions (per_function sandboxes each) so post-failover
  /// traffic lands kWarm/kHorse instead of kCold. Returns the first
  /// error; later functions are still attempted.
  util::Status rehydrate_warm(std::size_t top_k, std::size_t per_function);

  [[nodiscard]] std::uint64_t crash_faults() const noexcept {
    return crash_count_.load(std::memory_order_relaxed);
  }
  /// Monotonic instant of the most recent crash (0 = never crashed);
  /// detection latency = declared-dead time minus this.
  [[nodiscard]] util::Nanos crashed_at() const noexcept {
    return crashed_at_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return dispatcher_.completed();
  }
  /// Tasks this host's dispatcher expired at dequeue (counted within
  /// completed() too — expiry records an outcome).
  [[nodiscard]] std::uint64_t expired() const noexcept {
    return dispatcher_.expired();
  }
  [[nodiscard]] std::uint64_t stall_faults() const noexcept {
    return stall_count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Dispatcher& dispatcher() noexcept { return dispatcher_; }

  /// Copy of the host's dispatch-latency histogram (submit → worker
  /// pickup, i.e. queueing; recorded at execution time).
  [[nodiscard]] metrics::Histogram dispatch_latency() const;

  /// EWMA of recent dispatch (queueing) latency — the scheduler's
  /// queue-delay estimate for admission control. Updated lock-free at
  /// task pickup (α = 1/8); 0 until the first task runs.
  [[nodiscard]] util::Nanos queueing_ewma() const noexcept {
    return queueing_ewma_.load(std::memory_order_relaxed);
  }

 private:
  friend class Dispatcher;  // its workers are the only run_task callers

  /// Execute one dequeued task against the platform, filling `outcome`
  /// (function/mode/seq/key/queueing are already set by the worker).
  void run_task(faas::Submission task, faas::SubmissionOutcome& outcome);
  /// The cluster.host_crash / cluster.host_stall probe for one accepted
  /// task (re-dispatched tasks and unhealthy hosts are exempt).
  void probe_faults(const faas::Submission& task);
  void stall();

  const HostId id_;
  const bool pull_mode_;
  std::atomic<bool> healthy_{true};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<util::Nanos> crashed_at_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> stall_count_{0};
  std::atomic<std::uint64_t> crash_count_{0};
  /// Tasks currently inside run_task, keyed by idempotency key. Leaf
  /// lock: taken by workers (insert/erase) and the health sweep (steal).
  mutable std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, faas::Submission> inflight_;
  mutable std::mutex latency_mutex_;
  metrics::Histogram dispatch_latency_;
  std::atomic<util::Nanos> queueing_ewma_{0};
  // Platform before Dispatcher: workers join before the control plane
  // they invoke against is torn down.
  faas::Platform platform_;
  Dispatcher dispatcher_;
};

}  // namespace horse::cluster
