#include "core/merge_crew.hpp"

#include <chrono>

#include "util/fault_injection.hpp"
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

ParallelMergeCrew::ParallelMergeCrew(std::size_t num_workers,
                                     util::Nanos watchdog_timeout)
    : slots_(num_workers == 0 ? 1 : num_workers),
      watchdog_timeout_(watchdog_timeout) {
  const std::size_t n = slots_.size();
  workers_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    spawn_worker(i);
  }
}

ParallelMergeCrew::~ParallelMergeCrew() {
  shutdown_.store(true, std::memory_order_release);
  std::lock_guard lock(respawn_mutex_);
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.request_stop();
    }
  }
  for (auto& worker : graveyard_) {
    if (worker.joinable()) {
      worker.request_stop();
    }
  }
  // jthread destructors join; worker_loop exits on shutdown_ / stop /
  // epoch supersession (stalled workers poll all three every ~1 ms).
}

void ParallelMergeCrew::arm() noexcept {
  armed_.store(true, std::memory_order_release);
}

void ParallelMergeCrew::disarm() noexcept {
  armed_.store(false, std::memory_order_release);
}

std::size_t ParallelMergeCrew::healthy_workers() const noexcept {
  std::size_t healthy = 0;
  for (const WorkerSlot& slot : slots_) {
    if (!slot.quarantined.load(std::memory_order_acquire)) {
      ++healthy;
    }
  }
  return healthy;
}

MergeCrewStats ParallelMergeCrew::stats() const noexcept {
  MergeCrewStats out;
  out.watchdog_steals = watchdog_steals_.load(std::memory_order_acquire);
  out.workers_quarantined =
      workers_quarantined_.load(std::memory_order_acquire);
  out.workers_respawned = workers_respawned_.load(std::memory_order_acquire);
  out.full_sequential_fallbacks =
      full_sequential_fallbacks_.load(std::memory_order_acquire);
  return out;
}

void ParallelMergeCrew::spawn_worker(std::size_t index) {
  WorkerSlot& slot = slots_[index];
  const std::uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
  // The worker reacts only to dispatches issued after it took over the
  // slot — a replacement must not re-execute its predecessor's
  // generations. The snapshot is taken HERE, before the thread exists:
  // taken on the new thread, a dispatch published before its first load
  // would count as already seen and sit until the watchdog stole it.
  const std::uint64_t seen = slot.generation.load(std::memory_order_acquire);
  slot.quarantined.store(false, std::memory_order_release);
  workers_[index] = std::jthread(
      [this, index, epoch, seen](std::stop_token stop) {
        worker_loop(index, epoch, seen, stop);
      });
}

void ParallelMergeCrew::quarantine_and_respawn(std::size_t index) {
  std::lock_guard lock(respawn_mutex_);
  WorkerSlot& slot = slots_[index];
  if (slot.quarantined.load(std::memory_order_acquire)) {
    return;  // already handled (idempotent under races with shutdown)
  }
  slot.quarantined.store(true, std::memory_order_release);
  workers_quarantined_.fetch_add(1, std::memory_order_relaxed);

  // Supersede the old worker: it exits as soon as it next observes the
  // epoch bump (stalled workers poll every ~1 ms). Its jthread moves to
  // the graveyard so a wedged thread never blocks the dispatch path —
  // only destruction waits for it.
  slot.epoch.fetch_add(1, std::memory_order_release);
  if (workers_[index].joinable()) {
    workers_[index].request_stop();
    graveyard_.push_back(std::move(workers_[index]));
  }

  const std::uint64_t budget =
      max_respawns_per_slot_.load(std::memory_order_acquire);
  if (shutdown_.load(std::memory_order_acquire) ||
      slot.respawns.load(std::memory_order_acquire) >= budget) {
    return;  // slot stays quarantined; dispatch routes around it
  }
  slot.respawns.fetch_add(1, std::memory_order_relaxed);
  spawn_worker(index);
  workers_respawned_.fetch_add(1, std::memory_order_relaxed);
}

void ParallelMergeCrew::execute(std::span<const SpliceTask> tasks) {
  if (tasks.empty()) {
    return;
  }

  // Route around quarantined slots. If nothing healthy remains the crew
  // has degraded all the way to a sequential executor: correct, slower,
  // and counted.
  std::vector<std::size_t> healthy;
  healthy.reserve(slots_.size());
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    if (!slots_[w].quarantined.load(std::memory_order_acquire)) {
      healthy.push_back(w);
    }
  }
  if (healthy.empty()) {
    full_sequential_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    for (const SpliceTask& task : tasks) {
      execute_splice(task);
    }
    return;
  }

  const bool was_armed = armed();
  if (!was_armed) {
    arm();
  }

  // Chunk tasks across the healthy workers; worker k of the healthy set
  // handles tasks[k*chunk .. min((k+1)*chunk, n)).
  const std::size_t n_workers = healthy.size();
  const std::size_t chunk = (tasks.size() + n_workers - 1) / n_workers;
  std::size_t dispatched = 0;
  std::size_t used = 0;
  for (; used < n_workers && dispatched < tasks.size(); ++used) {
    WorkerSlot& slot = slots_[healthy[used]];
    const std::size_t count = std::min(chunk, tasks.size() - dispatched);
    slot.tasks = tasks.data() + dispatched;
    slot.count = count;
    dispatched += count;
    // Publish: the generation bump releases the task pointer/count.
    HORSE_YIELD_POINT("crew.publish");
    slot.generation.fetch_add(1, std::memory_order_release);
  }

  // Wait for completion: each dispatched worker acknowledges by matching
  // completed to generation. The watchdog bounds the wait — a worker that
  // misses its deadline has its chunk stolen via the `claimed` CAS and
  // executed inline, then the worker is quarantined and (budget
  // permitting) respawned.
  for (std::size_t k = 0; k < used; ++k) {
    WorkerSlot& slot = slots_[healthy[k]];
    const std::uint64_t target = slot.generation.load(std::memory_order_acquire);
    std::uint32_t spins = 0;
    const bool watchdog_enabled = watchdog_timeout_ > 0;
    util::Nanos deadline =
        watchdog_enabled ? util::monotonic_now() + watchdog_timeout_ : 0;
    bool steal_attempted = false;
    while (slot.completed.load(std::memory_order_acquire) != target) {
      HORSE_YIELD_POINT("crew.wait_complete");
      if (watchdog_enabled && !steal_attempted &&
          util::monotonic_now() >= deadline) {
        steal_attempted = true;
        std::uint64_t expected = target - 1;
        if (slot.claimed.compare_exchange_strong(expected, target,
                                                 std::memory_order_acq_rel)) {
          // Stolen before the worker claimed it: the chunk is ours alone.
          for (std::size_t i = 0; i < slot.count; ++i) {
            execute_splice(slot.tasks[i]);
          }
          slot.completed.store(target, std::memory_order_release);
          watchdog_steals_.fetch_add(1, std::memory_order_relaxed);
          quarantine_and_respawn(healthy[k]);
          break;
        }
        // The worker owns the claim: it is executing (or died mid-chunk,
        // which the fault sites cannot produce — they fire before the
        // claim). Keep waiting; the splice set must not run twice.
      }
      relax_or_yield(spins);
    }
  }

  if (!was_armed) {
    disarm();
  }
}

void ParallelMergeCrew::worker_loop(std::size_t index, std::uint64_t my_epoch,
                                    std::uint64_t seen, std::stop_token stop) {
  WorkerSlot& slot = slots_[index];
  // A dispatch may already be published by the time the new thread runs;
  // `seen` (snapshotted at spawn) makes it visible on the first check.
  HORSE_YIELD_POINT("crew.worker_start");
  std::uint32_t spins = 0;
  const auto superseded = [&]() noexcept {
    return slot.epoch.load(std::memory_order_acquire) != my_epoch;
  };
  while (!stop.stop_requested() &&
         !shutdown_.load(std::memory_order_acquire) && !superseded()) {
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

    // Both fault sites fire BEFORE the claim CAS, so injected failures
    // never abandon a half-spliced chunk: the watchdog's steal always
    // finds the chunk untouched.
    if (HORSE_FAULT_POINT("crew.worker_death")) {
      // Simulated worker death: exit without claiming or completing. The
      // dispatcher's watchdog steals the chunk and quarantines this slot.
      return;
    }
    if (HORSE_FAULT_POINT("crew.worker_stall")) {
      // Simulated indefinite preemption. Sleep in ~1 ms increments so the
      // stall ends promptly once the watchdog has stolen the chunk (or on
      // supersession/shutdown) and never wedges the destructor.
      const util::Nanos stall_deadline =
          util::monotonic_now() + 2 * util::kSecond;
      while (slot.claimed.load(std::memory_order_acquire) != gen &&
             !stop.stop_requested() &&
             !shutdown_.load(std::memory_order_acquire) && !superseded() &&
             util::monotonic_now() < stall_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    // Claim the chunk: CAS gen-1 → gen. Losing means the watchdog stole
    // it while we were stalled — skip, never splice twice.
    std::uint64_t expected = gen - 1;
    if (!slot.claimed.compare_exchange_strong(expected, gen,
                                              std::memory_order_acq_rel)) {
      continue;
    }

    HORSE_YIELD_POINT("crew.dispatch");
    for (std::size_t i = 0; i < slot.count; ++i) {
      execute_splice(slot.tasks[i]);
    }
    HORSE_YIELD_POINT("crew.complete");
    slot.completed.store(seen, std::memory_order_release);
  }
}

}  // namespace horse::core
