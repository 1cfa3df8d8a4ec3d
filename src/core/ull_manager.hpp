// Reserved uLL run-queue management (§4.1.3).
//
// HORSE confines uLL sandboxes to a small set of reserved run queues so
// that 𝒫²𝒮ℳ's precomputed structures only have to track those queues.
// The set is fixed at construction (`HorseConfig::num_ull_runqueues`,
// "one (or a few)" ull_runqueues as a deployment setting).
// Responsibilities:
//   * reserve the queues in the topology (general placement skips them),
//   * assign each pausing uLL sandbox to the reserved queue with the
//     fewest paused sandboxes ("the choice … considers the number of
//     paused sandboxes already associated with each ull_runqueue to
//     perform load balancing"), read from per-queue atomic occupancy
//     counters — no lock, no scan of the tracked set,
//   * own one P2smIndex per paused sandbox, built at pause time; the
//     resuming engine freshens a stale index in place in step ④, so no
//     index is maintained while its sandbox stays paused,
//   * map each reserved queue to the HorseResumeEngine bound to it, so
//     the sharded control plane can route a resume to the engine whose
//     step-② lock serialises exactly that queue and nothing else.
//
// Where the state lives: a paused sandbox carries its own fast-path state
// (vmm::UllSlot — its reserved-queue position and its TrackedNode), so the
// warm pause/resume cycle (assign, track, lookup, untrack, engine routing)
// takes no manager lock and touches no map. A node is allocated once per
// sandbox lifetime, at its first tracked pause, rebuilt in place on every
// later pause, and retired to its queue's epoch reclaimer only when the
// sandbox is destroyed (release()).
//
// Thread-safety: a node's index and its `tracked_on` queue are written
// only under that queue's lock (or by the sandbox's single owner while the
// node is untracked), so step ④'s splice and every reporting read of the
// index serialise on the queue lock. The reserved set and the per-queue
// counter and engine arrays are sized in the constructor and never
// reshaped, so lock-free readers index them directly. The manager mutex
// guards only engine bind/unbind, node birth and death, and the node
// registry the reporting calls (snapshot, tracked_count,
// total_index_bytes) walk.
//
// Lock hierarchy (never acquire right-to-left):
//   shard mutex → engine resume_lock_ → manager mutex → queue lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/p2sm.hpp"
#include "metrics/contention.hpp"
#include "sched/topology.hpp"
#include "util/align.hpp"
#include "util/epoch.hpp"
#include "util/intrusive_list.hpp"
#include "util/status.hpp"
#include "vmm/sandbox.hpp"

namespace horse::core {

class HorseResumeEngine;

/// Paused-sandbox count of one reserved queue (occupancy snapshot).
struct UllQueueOccupancy {
  sched::CpuId cpu = 0;
  std::size_t paused = 0;
};

/// A uLL sandbox's 𝒫²𝒮ℳ record, reached through its vmm::UllSlot. The
/// index lives inline so node and run table share one lifetime.
struct TrackedNode {
  static constexpr sched::CpuId kUntracked = ~sched::CpuId{0};

  vmm::Sandbox* sandbox = nullptr;
  /// The reserved queue the index was built against while the sandbox is
  /// paused, kUntracked while it runs. Stored only under that queue's
  /// lock, so a reader holding the lock of the queue it names may read
  /// the index.
  std::atomic<sched::CpuId> tracked_on{kUntracked};
  /// Queue of the latest build; its epoch reclaimer receives the node.
  sched::CpuId home = 0;
  P2smIndex index;
  util::ListHook registry;  // manager mutex
  util::EpochRetireNode retire{nullptr, this, &TrackedNode::destroy};

  static void destroy(void* node) noexcept {
    delete static_cast<TrackedNode*>(node);
  }
};

class UllRunQueueManager {
 public:
  /// Reserves `config.num_ull_runqueues` CPUs, starting from the highest
  /// CPU id (leaving low ids for general work, as pinned-core setups do).
  UllRunQueueManager(sched::CpuTopology& topology, const HorseConfig& config);

  /// The reserved CPUs, in reservation order.
  [[nodiscard]] const std::vector<sched::CpuId>& ull_cpus() const noexcept {
    return ull_cpus_;
  }

  ~UllRunQueueManager();

  /// Pause-time assignment: least-occupied reserved queue, chosen from the
  /// per-queue atomic counters without a lock. Re-assigning releases the
  /// sandbox's previous slot first.
  [[nodiscard]] sched::CpuId assign(vmm::Sandbox& sandbox);

  /// The queue a paused sandbox was assigned to.
  [[nodiscard]] util::Expected<sched::CpuId> assignment(
      const vmm::Sandbox& sandbox) const;

  /// assignment() + index_of() for the resume fast path, lock-free.
  /// `index` is nullptr when the sandbox is assigned but not tracked (e.g.
  /// 𝒫²𝒮ℳ disabled). With `epoch_pin`, the assigned queue's epoch is
  /// pinned before the node is read, so a release() that retires the node
  /// after this point cannot have it freed until the caller drops the
  /// guard.
  struct LookupResult {
    sched::CpuId cpu = 0;
    P2smIndex* index = nullptr;
  };
  [[nodiscard]] util::Expected<LookupResult> lookup(
      vmm::Sandbox& sandbox,
      std::optional<util::EpochReclaimer::ReadGuard>* epoch_pin = nullptr);

  /// Build the paused sandbox's 𝒫²𝒮ℳ index against its assigned queue
  /// (under that queue's lock). The first call for a sandbox allocates its
  /// node under the manager mutex; later calls rebuild it in place.
  /// Requires merge_vcpus to be populated (post-pause).
  util::Status track(vmm::Sandbox& sandbox);

  /// Drop the sandbox's tracked state and release its occupancy slot
  /// (after resume), lock-free apart from the lock of the queue it is
  /// tracked on. The node stays with the sandbox for its next pause.
  void untrack(vmm::Sandbox& sandbox);
  /// untrack() for a caller already holding the lock of the queue the
  /// sandbox is tracked on (step ④).
  void untrack_locked(vmm::Sandbox& sandbox) noexcept;

  /// Destroy-time teardown: release the sandbox's slot, unlink its node
  /// from the registry and retire it to its queue's epoch reclaimer. Call
  /// it before the sandbox is destroyed.
  void release(vmm::Sandbox& sandbox);

  /// The index of a paused, tracked sandbox; nullptr otherwise.
  [[nodiscard]] P2smIndex* index_of(const vmm::Sandbox& sandbox) const noexcept;

  [[nodiscard]] std::size_t tracked_count() const;

  /// Total heap footprint of the precomputed structures of every tracked
  /// sandbox (§5.2 memory overhead; the paper measures ≈528 KB for 10
  /// paused uLL sandboxes).
  [[nodiscard]] std::size_t total_index_bytes() const;

  /// Acquisition accounting for the manager's internal mutex.
  [[nodiscard]] metrics::ContentionStats contention() const noexcept {
    return meter_.snapshot();
  }

  /// Occupancy + contention + tracked count read in ONE manager-mutex
  /// hold. The counters move without that mutex, so the fields agree
  /// exactly only while no pause or resume is in flight.
  struct ManagerSnapshot {
    std::vector<UllQueueOccupancy> occupancy;
    metrics::ContentionStats contention;
    std::size_t tracked = 0;
  };
  [[nodiscard]] ManagerSnapshot snapshot() const;

  // --- engine-per-queue binding (sharded control plane) -------------------

  /// Bind `engine` as the resume engine owning `cpu`'s queue. Engines
  /// bind themselves at construction and unbind at destruction.
  void bind_engine(sched::CpuId cpu, HorseResumeEngine* engine);
  void unbind_engine(const HorseResumeEngine* engine);

  /// The engine owning the queue a paused sandbox was assigned to, read
  /// without a lock. An unassigned sandbox gets the first bound engine.
  /// nullptr when no engine is bound to the queue (or, for an unassigned
  /// sandbox, to any queue).
  [[nodiscard]] HorseResumeEngine* engine_for_sandbox(
      const vmm::Sandbox& sandbox) const noexcept;

 private:
  /// Release `slot`'s occupancy count and mark it unassigned.
  void release_slot(vmm::UllSlot& slot) noexcept;

  sched::CpuTopology& topology_;
  mutable std::mutex mutex_;
  mutable metrics::ContentionMeter meter_;
  const bool branchless_walk_;
  /// Reserved CPUs; this and the two per-position arrays below keep their
  /// shape from the constructor on.
  const std::vector<sched::CpuId> ull_cpus_;
  /// Paused-sandbox count per reserved position, one cache line each so
  /// the two reserved queues' pause/resume traffic never false-shares.
  std::vector<util::PaddedAtomic<std::size_t>> occupancy_;
  std::vector<std::atomic<HorseResumeEngine*>> engines_;
  /// Every live node (manager mutex).
  mutable util::IntrusiveList<TrackedNode, &TrackedNode::registry> nodes_;
};

}  // namespace horse::core
