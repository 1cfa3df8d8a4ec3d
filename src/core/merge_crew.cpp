#include "core/merge_crew.hpp"

#include <algorithm>

#include "util/spinlock.hpp"
#include "util/yield_point.hpp"

namespace horse::core {

namespace {

// Spins this many cpu_relax() iterations before conceding the core with a
// sched_yield. On a dedicated machine the budget is never exhausted (the
// peer thread answers within tens of cycles); on an oversubscribed host —
// CI runners, the single-core sanitizer matrix — burning a full scheduler
// quantum while the peer is preempted turns a ~100 ns handshake into
// milliseconds, so the fallback keeps worst-case latency at one context
// switch instead.
constexpr std::uint32_t kSpinBudget = 4096;

inline void relax_or_yield(std::uint32_t& spins) noexcept {
  util::cpu_relax();
  if (++spins >= kSpinBudget) {
    spins = 0;
    std::this_thread::yield();
  }
}

}  // namespace

ParallelMergeCrew::ParallelMergeCrew(std::size_t num_workers)
    : slots_(num_workers == 0 ? 1 : num_workers) {
  const std::size_t n = slots_.size();
  workers_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    spawn_worker(i);
  }
}

void ParallelMergeCrew::arm() noexcept {
  armed_.store(true, std::memory_order_release);
}

void ParallelMergeCrew::disarm() noexcept {
  armed_.store(false, std::memory_order_release);
}

void ParallelMergeCrew::spawn_worker(std::size_t index) {
  // The worker reacts only to dispatches issued after this snapshot. It is
  // taken HERE, before the thread exists: taken on the new thread, a
  // dispatch published before its first load would count as already seen
  // and never run.
  const std::uint64_t seen =
      slots_[index].generation.load(std::memory_order_acquire);
  workers_[index] = std::jthread([this, index, seen](std::stop_token stop) {
    worker_loop(index, seen, stop);
  });
}

void ParallelMergeCrew::execute(std::span<const SpliceTask> tasks) {
  if (tasks.empty()) {
    return;
  }

  const bool was_armed = armed();
  if (!was_armed) {
    arm();
  }

  // Chunk tasks across workers; worker k handles
  // tasks[k*chunk .. min((k+1)*chunk, n)).
  const std::size_t n_workers = slots_.size();
  const std::size_t chunk = (tasks.size() + n_workers - 1) / n_workers;
  std::size_t dispatched = 0;
  std::size_t used = 0;
  for (; used < n_workers && dispatched < tasks.size(); ++used) {
    WorkerSlot& slot = slots_[used];
    const std::size_t count = std::min(chunk, tasks.size() - dispatched);
    slot.tasks = tasks.data() + dispatched;
    slot.count = count;
    dispatched += count;
    // Publish: the generation bump releases the task pointer/count.
    HORSE_YIELD_POINT("crew.publish");
    slot.generation.fetch_add(1, std::memory_order_release);
  }

  // Wait for completion: each dispatched worker acknowledges by matching
  // completed to generation.
  for (std::size_t k = 0; k < used; ++k) {
    WorkerSlot& slot = slots_[k];
    const std::uint64_t target = slot.generation.load(std::memory_order_acquire);
    std::uint32_t spins = 0;
    while (slot.completed.load(std::memory_order_acquire) != target) {
      HORSE_YIELD_POINT("crew.wait_complete");
      relax_or_yield(spins);
    }
  }

  if (!was_armed) {
    disarm();
  }
}

void ParallelMergeCrew::worker_loop(std::size_t index, std::uint64_t seen,
                                    std::stop_token stop) {
  WorkerSlot& slot = slots_[index];
  // A dispatch may already be published by the time the new thread runs;
  // `seen` (snapshotted at spawn) makes it visible on the first check.
  HORSE_YIELD_POINT("crew.worker_start");
  std::uint32_t spins = 0;
  while (!stop.stop_requested()) {
    const std::uint64_t gen = slot.generation.load(std::memory_order_acquire);
    if (gen == seen) {
      HORSE_YIELD_POINT("crew.spin");
      if (armed_.load(std::memory_order_acquire)) {
        // Armed: spin hot, but concede after a generous budget so an
        // oversubscribed host (fewer cores than crew + dispatcher) still
        // makes progress within one scheduling quantum.
        relax_or_yield(spins);
      } else {
        // Disarmed: yield the core instead of burning it. A futex would be
        // cheaper still, but yield keeps wake-up latency bounded at one
        // scheduling quantum without platform-specific code.
        std::this_thread::yield();
      }
      continue;
    }
    seen = gen;
    spins = 0;

    HORSE_YIELD_POINT("crew.dispatch");
    for (std::size_t i = 0; i < slot.count; ++i) {
      execute_splice(slot.tasks[i]);
    }
    HORSE_YIELD_POINT("crew.complete");
    slot.completed.store(seen, std::memory_order_release);
  }
}

}  // namespace horse::core
