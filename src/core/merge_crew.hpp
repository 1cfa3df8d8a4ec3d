// Execution of the 𝒫²𝒮ℳ splice set.
//
// Algorithm 1 of the paper assigns one thread per posA key, each doing two
// pointer rewrites. Inside a hypervisor those "threads" are per-CPU
// workers signalled by IPI; in user space, spawning a std::thread per
// resume (~20 µs) would be three orders of magnitude more expensive than
// the work itself. MergeCrew therefore keeps a fixed set of pre-armed
// workers that spin-wait on a generation counter while armed — dispatch is
// one atomic store, completion is observed through per-worker done flags.
//
// A sequential executor is also provided: on machines with few cores (or
// when the splice count is small) issuing the two writes per run from the
// resuming thread is faster than any cross-core signalling. HorseConfig
// selects the mode; both are semantically identical and tested as such.
//
// Degradation ladder (this file's rung): a worker that stalls or dies
// between dispatch and completion would otherwise wedge the resume thread
// in the done-flag spin forever. The dispatcher therefore runs a watchdog
// over the wait: when a worker misses its deadline the dispatcher *steals*
// the chunk — arbitrated through a per-slot `claimed` CAS so the splice is
// executed exactly once — runs it inline (sequential demotion), and
// quarantines + respawns the offending worker. If every slot is
// quarantined (respawn budget exhausted) the crew demotes itself to a full
// sequential executor. Every event is counted in MergeCrewStats.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/align.hpp"
#include "util/intrusive_list.hpp"
#include "util/time.hpp"
#include "util/yield_point.hpp"

namespace horse::core {

/// One splice: link chain [head..tail] right after `anchor`.
/// Field-level disjointness across tasks (guaranteed by 𝒫²𝒮ℳ's
/// construction: distinct anchors, runs partition A) makes the set safe to
/// execute concurrently without locks.
struct SpliceTask {
  util::ListHook* anchor = nullptr;
  util::ListHook* head = nullptr;
  util::ListHook* tail = nullptr;
};

/// Execute one splice: the two boundary rewrites of Algorithm 1 (four
/// pointer stores for a doubly-linked queue).
///
/// The HORSE_YIELD_POINT markers expose every individual load/store to the
/// deterministic interleaving explorer (tests/harness/): under
/// -DHORSE_SCHED_TEST=ON a seeded scheduler can suspend a splicing thread
/// between any two of these operations, which is exactly the granularity
/// at which the paper's field-disjointness argument must hold. In normal
/// builds the markers compile to nothing.
inline void execute_splice(const SpliceTask& task) noexcept {
  HORSE_YIELD_POINT("splice.read_after");
  util::ListHook* after = task.anchor->next;
  HORSE_YIELD_POINT("splice.set_anchor_next");
  task.anchor->next = task.head;
  HORSE_YIELD_POINT("splice.set_head_prev");
  task.head->prev = task.anchor;
  HORSE_YIELD_POINT("splice.set_tail_next");
  task.tail->next = after;
  HORSE_YIELD_POINT("splice.set_after_prev");
  after->prev = task.tail;
  HORSE_YIELD_POINT("splice.done");
}

class MergeExecutor {
 public:
  virtual ~MergeExecutor() = default;
  /// Execute every task; returns when all splices are globally visible.
  virtual void execute(std::span<const SpliceTask> tasks) = 0;
};

/// Runs the splices from the calling thread. O(#runs) with a ~1 ns
/// constant; the right choice when #runs is small or cores are scarce.
class SequentialMergeExecutor final : public MergeExecutor {
 public:
  void execute(std::span<const SpliceTask> tasks) override {
    for (const SpliceTask& task : tasks) {
      execute_splice(task);
    }
  }
};

/// Counters for the crew's degradation rungs. Monotonic over the crew's
/// lifetime; snapshot via ParallelMergeCrew::stats().
struct MergeCrewStats {
  /// Chunks the dispatcher's watchdog stole from a stalled/dead worker and
  /// executed inline (sequential demotion of that chunk).
  std::uint64_t watchdog_steals = 0;
  /// Workers pulled from rotation after missing a deadline.
  std::uint64_t workers_quarantined = 0;
  /// Replacement workers spawned for quarantined slots.
  std::uint64_t workers_respawned = 0;
  /// Dispatches that ran entirely inline because no healthy worker was
  /// left (respawn budget exhausted on every slot).
  std::uint64_t full_sequential_fallbacks = 0;
};

/// Pre-armed parallel crew. Workers spin while armed (call arm() before a
/// resume burst, disarm() after — armed workers burn their cores, exactly
/// like the high-priority merge threads in §4.1.3 preempt whatever runs
/// on the target queue's CPUs). While disarmed, workers block cheaply.
class ParallelMergeCrew final : public MergeExecutor {
 public:
  /// Dispatcher-side deadline per dispatched chunk before the watchdog
  /// steals it. Generous: real chunks complete in hundreds of nanoseconds,
  /// so a missed deadline means the worker is preempted-forever, wedged,
  /// or dead — not merely slow. 0 disables the watchdog (wait forever).
  static constexpr util::Nanos kDefaultWatchdogTimeout =
      250 * util::kMillisecond;

  explicit ParallelMergeCrew(std::size_t num_workers,
                             util::Nanos watchdog_timeout =
                                 kDefaultWatchdogTimeout);
  ~ParallelMergeCrew() override;

  ParallelMergeCrew(const ParallelMergeCrew&) = delete;
  ParallelMergeCrew& operator=(const ParallelMergeCrew&) = delete;

  void arm() noexcept;
  void disarm() noexcept;
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Workers that are currently in rotation (not quarantined).
  [[nodiscard]] std::size_t healthy_workers() const noexcept;

  /// Quarantined workers are normally replaced immediately. Tests (and
  /// deployments that prefer fail-static behaviour) can bound the number
  /// of respawns per slot; once exhausted the slot stays quarantined and
  /// the dispatcher stops routing work to it. 0 = never respawn.
  void set_max_respawns_per_slot(std::uint64_t max_respawns) noexcept {
    max_respawns_per_slot_.store(max_respawns, std::memory_order_release);
  }

  [[nodiscard]] MergeCrewStats stats() const noexcept;

  /// Tasks beyond the crew size are chunked across workers. Blocks until
  /// every splice has completed. Works whether armed (spin dispatch) or
  /// not (arms temporarily). Never blocks forever while the watchdog is
  /// enabled: chunks whose worker misses the deadline are stolen and run
  /// inline.
  void execute(std::span<const SpliceTask> tasks) override;

 private:
  struct alignas(util::kCacheLineSize) WorkerSlot {
    /// Dispatch sequence number; bumped (release) to publish tasks/count.
    std::atomic<std::uint64_t> generation{0};
    /// Claim token: executing generation g requires CAS g-1 → g. The
    /// worker and the watchdog race on this CAS; the loser backs off, so
    /// each chunk is spliced exactly once.
    std::atomic<std::uint64_t> claimed{0};
    /// Completion flag: matches generation when the chunk is done.
    std::atomic<std::uint64_t> completed{0};
    /// Bumped on respawn; a worker observing an epoch other than its own
    /// has been superseded and exits.
    std::atomic<std::uint64_t> epoch{0};
    /// True while the slot has no live worker (dispatch skips it).
    std::atomic<bool> quarantined{false};
    /// Respawns consumed by this slot (vs. max_respawns_per_slot_).
    std::atomic<std::uint64_t> respawns{0};
    const SpliceTask* tasks = nullptr;
    std::size_t count = 0;
  };

  /// `seen` is the slot's generation snapshotted by spawn_worker: the
  /// worker executes every generation after it.
  void worker_loop(std::size_t index, std::uint64_t my_epoch,
                   std::uint64_t seen, std::stop_token stop);
  void spawn_worker(std::size_t index);
  /// Pull the slot's worker from rotation and (budget permitting) spawn a
  /// replacement at a new epoch. The old jthread is parked in the
  /// graveyard and joined at destruction — it may still be mid-stall.
  void quarantine_and_respawn(std::size_t index);

  std::vector<WorkerSlot> slots_;
  const util::Nanos watchdog_timeout_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> max_respawns_per_slot_{
      ~std::uint64_t{0}};  // unlimited

  // Stats as atomics so workers/watchdog update without a lock.
  std::atomic<std::uint64_t> watchdog_steals_{0};
  std::atomic<std::uint64_t> workers_quarantined_{0};
  std::atomic<std::uint64_t> workers_respawned_{0};
  std::atomic<std::uint64_t> full_sequential_fallbacks_{0};

  mutable std::mutex respawn_mutex_;  // guards workers_ / graveyard_
  std::vector<std::jthread> workers_;
  std::vector<std::jthread> graveyard_;  // superseded workers, joined in dtor
};

}  // namespace horse::core
