// Execution of the 𝒫²𝒮ℳ splice set.
//
// Algorithm 1 of the paper assigns one thread per posA key, each doing two
// pointer rewrites. Inside a hypervisor those "threads" are per-CPU
// workers signalled by IPI; in user space, spawning a std::thread per
// resume (~20 µs) would be three orders of magnitude more expensive than
// the work itself. ParallelMergeCrew therefore keeps a fixed set of
// pre-armed workers that spin-wait on a generation counter while armed —
// dispatch is one atomic store, completion is observed through per-worker
// done flags.
//
// HorseResumeEngine always uses the sequential executor: issuing the two
// writes per run from the resuming thread beats any cross-core signalling
// across the paper's 1–36 vCPU range (EXPERIMENTS.md E8). The crew stays
// as the E8 ablation executor (bench/abl_p2sm_micro); both executors are
// semantically identical and tested as such.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "util/align.hpp"
#include "util/intrusive_list.hpp"
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
/// constant; HorseResumeEngine's step-④ executor.
class SequentialMergeExecutor final : public MergeExecutor {
 public:
  void execute(std::span<const SpliceTask> tasks) override {
    for (const SpliceTask& task : tasks) {
      execute_splice(task);
    }
  }
};

/// Pre-armed parallel crew. Workers spin while armed (call arm() before a
/// resume burst, disarm() after — armed workers burn their cores, exactly
/// like the high-priority merge threads in §4.1.3 preempt whatever runs
/// on the target queue's CPUs). While disarmed, workers block cheaply.
class ParallelMergeCrew final : public MergeExecutor {
 public:
  explicit ParallelMergeCrew(std::size_t num_workers);

  ParallelMergeCrew(const ParallelMergeCrew&) = delete;
  ParallelMergeCrew& operator=(const ParallelMergeCrew&) = delete;

  void arm() noexcept;
  void disarm() noexcept;
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Tasks beyond the crew size are chunked across workers. Blocks until
  /// every splice has completed. Works whether armed (spin dispatch) or
  /// not (arms temporarily).
  void execute(std::span<const SpliceTask> tasks) override;

 private:
  struct alignas(util::kCacheLineSize) WorkerSlot {
    /// Dispatch sequence number; bumped (release) to publish tasks/count.
    std::atomic<std::uint64_t> generation{0};
    /// Completion flag: matches generation when the chunk is done.
    std::atomic<std::uint64_t> completed{0};
    const SpliceTask* tasks = nullptr;
    std::size_t count = 0;
  };

  /// `seen` is the slot's generation snapshotted by spawn_worker: the
  /// worker executes every generation after it.
  void worker_loop(std::size_t index, std::uint64_t seen,
                   std::stop_token stop);
  void spawn_worker(std::size_t index);

  std::vector<WorkerSlot> slots_;
  std::atomic<bool> armed_{false};
  /// Last member: the jthreads request stop and join before the slots
  /// they read are destroyed.
  std::vector<std::jthread> workers_;
};

}  // namespace horse::core
