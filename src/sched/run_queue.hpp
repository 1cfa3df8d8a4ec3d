// A per-CPU run queue: credit-sorted intrusive list of vCPUs plus the
// lock-protected load variable the DVFS governor reads.
//
// This is the data structure both resume paths contend on:
//   * vanilla step ④ calls insert_sorted() once per vCPU (O(queue length)
//     each), step ⑤ calls update_load_enqueue() once per vCPU under the
//     load lock;
//   * HORSE splices a pre-merged chain with 𝒫²𝒮ℳ and applies one
//     coalesced load update.
// A monotonically increasing version counter lets 𝒫²𝒮ℳ's precompute layer
// detect structural changes (§4.1.3: "the updates are performed each time
// ull_runqueue is updated").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "sched/pelt.hpp"
#include "sched/vcpu.hpp"
#include "util/epoch.hpp"
#include "util/spinlock.hpp"
#include "util/status.hpp"

namespace horse::sched {

/// One journalled structural mutation. Carries exactly what 𝒫²𝒮ℳ's delta
/// repair needs to mirror the change into a stale index without re-walking
/// the queue: the post-mutation position of the affected element, its
/// credit, and the hook identity (§4.1.3 maintenance off the resume path).
struct QueueDelta {
  enum class Kind : std::uint8_t { kInsert, kRemove };

  /// The mutator did not know the element's index (remove-by-node); the
  /// repairer resolves it from (credit, hook) against its own snapshot.
  static constexpr std::int32_t kUnknownPosition = -1;

  /// The queue version this entry produced. A slot whose version does not
  /// match the probe is stale (overwritten by a later mutation) or was
  /// never written (an unjournalled bump_version()); either way the reader
  /// must fall back to a full rebuild.
  std::uint64_t version = 0;
  Kind kind = Kind::kInsert;
  std::int32_t position = kUnknownPosition;
  Credit credit = 0;
  util::ListHook* hook = nullptr;
};

class RunQueue {
 public:
  explicit RunQueue(CpuId cpu = 0, PeltParams pelt = {})
      : cpu_(cpu), pelt_(pelt) {}

  RunQueue(const RunQueue&) = delete;
  RunQueue& operator=(const RunQueue&) = delete;

  [[nodiscard]] CpuId cpu() const noexcept { return cpu_; }

  // --- structural operations (caller holds lock() unless noted) ---------

  /// Vanilla step ④: walk the queue and link `vcpu` before the first
  /// element with a larger credit. O(n) in the queue length.
  void insert_sorted(Vcpu& vcpu) noexcept;

  /// Single-pass fallback merge (the optimized vanilla sorted walk): moves
  /// every vCPU from `incoming` into the queue under ONE lock hold of the
  /// caller, scanning forward monotonically while incoming credits are
  /// non-decreasing (the common case — merge lists are kept sorted) and
  /// restarting from the head only on an out-of-order element. Element-
  /// for-element equivalent to calling insert_sorted() on each vCPU in
  /// list order — same final ordering, same journal positions — but with
  /// one journal publish, software prefetch of the next node, and no
  /// per-element lock traffic. Returns the number of vCPUs merged.
  std::size_t merge_sorted(VcpuList& incoming) noexcept;

  /// Append without ordering (used when the caller already knows the
  /// position, e.g. credit refill rebuilds).
  void push_back(Vcpu& vcpu) noexcept;

  /// Remove a specific vCPU (pause path, migration).
  void remove(Vcpu& vcpu) noexcept;

  /// Pop the head (lowest credit) or nullptr when empty.
  Vcpu* pop_front() noexcept;

  [[nodiscard]] Vcpu* peek_front() noexcept {
    return queue_.empty() ? nullptr : &queue_.front();
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }

  /// Checks ascending-credit order; test/debug helper, O(n).
  [[nodiscard]] bool is_sorted() const noexcept;

  /// Full structural audit, O(n). Verifies, walking from the sentinel:
  ///   * prev/next symmetry at every hook (node->next->prev == node),
  ///   * the walk closes back at the sentinel within size() steps (no
  ///     cycles, no lost nodes — the failure mode of a mis-spliced merge),
  ///   * the walked node count equals size() (the count the 𝒫²𝒮ℳ splice
  ///     path maintains out-of-band via add_size),
  ///   * size/version consistency: a non-empty queue has a non-zero
  ///     version (every way a node gets in bumps it),
  ///   * ascending credit order when `require_sorted` (run queues built
  ///     via insert_sorted / 𝒫²𝒮ℳ merges must be sorted; push_back-built
  ///     staging queues may legitimately not be).
  /// Returns the first violation found. Mutators self-audit with the
  /// structural subset under HORSE_DCHECK; release builds never call this.
  [[nodiscard]] util::Status check_invariants(
      bool require_sorted = true) const noexcept;

  /// Direct access for 𝒫²𝒮ℳ (splice primitives, sentinel anchor).
  [[nodiscard]] VcpuList& list() noexcept { return queue_; }

  // --- locking -----------------------------------------------------------

  util::Spinlock& lock() noexcept { return lock_; }

  // --- deferred reclamation ----------------------------------------------

  /// Per-queue epoch reclaimer for retired 𝒫²𝒮ℳ run nodes. The resume
  /// path pins it while reading an index and the ull-manager retires a
  /// destroyed sandbox's node to it instead of freeing it inline; actual
  /// frees happen in maintenance (track/refresh) via try_reclaim(). See
  /// util/epoch.hpp for the protocol and its place in the lock hierarchy.
  [[nodiscard]] util::EpochReclaimer& epoch() noexcept { return epoch_; }

  // --- load tracking (step ⑤) --------------------------------------------

  /// Apply one αx+β enqueue update under the load lock; returns new load.
  double update_load_enqueue() noexcept;

  /// Apply n enqueue updates in a single locked operation using the
  /// closed form — HORSE's coalesced update (§4.2).
  double update_load_coalesced(std::uint32_t n) noexcept;

  /// Coalesced update from pause-time precomputed factors (§4.2.2): the
  /// resume path does one locked FMA, L = alpha_n * L + beta_geo_sum.
  double apply_precomputed_load(double alpha_n, double beta_geo_sum) noexcept;

  /// Decay for idle periods (scheduler tick path).
  void decay_load(std::uint32_t periods) noexcept;

  [[nodiscard]] double load() const noexcept;
  void set_load_for_test(double load) noexcept;

  [[nodiscard]] const PeltLoadTracker& pelt() const noexcept { return pelt_; }

  // --- change tracking for 𝒫²𝒮ℳ precompute --------------------------------

  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Advance the version WITHOUT journalling the mutation. Every structural
  /// mutator journals internally; this exists for callers that change the
  /// queue in ways the journal cannot express (test-injected foreign
  /// mutations, index invalidation). Repairers observing the resulting gap
  /// fall back to a full rebuild — that is the intended contract.
  void bump_version() noexcept {
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- mutation journal (caller holds lock()) -----------------------------
  //
  // A fixed ring of the last kJournalCapacity structural mutations, keyed
  // by the version each produced. 𝒫²𝒮ℳ repair replays the entries between
  // its built version and the current one; a missing or overwritten entry
  // (ring wrapped, or an unjournalled bump_version()) reads as a gap and
  // forces the rebuild fallback. Slots are written before the version that
  // names them is published, so any reader that observes version v under
  // the queue lock can trust a slot whose version field equals v.

  static constexpr std::size_t kJournalCapacity = 64;

  /// The journal entry that produced `version`, or nullptr when it has
  /// been overwritten / was never journalled.
  [[nodiscard]] const QueueDelta* delta_for_version(
      std::uint64_t version) const noexcept {
    const QueueDelta& slot = journal_[version % kJournalCapacity];
    return slot.version == version ? &slot : nullptr;
  }

  /// Batch journalling for 𝒫²𝒮ℳ merge splices: stage the entry for version
  /// version()+1+offset with plain stores, then publish the whole batch
  /// with one release fetch_add via publish_staged_deltas(count). Avoids
  /// one atomic RMW per spliced vCPU on the resume path.
  void stage_delta(std::size_t offset, QueueDelta::Kind kind,
                   std::int32_t position, Credit credit,
                   util::ListHook* hook) noexcept {
    const std::uint64_t v =
        version_.load(std::memory_order_relaxed) + 1 + offset;
    QueueDelta& slot = journal_[v % kJournalCapacity];
    slot.version = v;
    slot.kind = kind;
    slot.position = position;
    slot.credit = credit;
    slot.hook = hook;
  }

  void publish_staged_deltas(std::size_t count) noexcept {
    version_.fetch_add(count, std::memory_order_acq_rel);
  }

 private:
  /// Stage + publish a single mutation (the common mutator path).
  void journal_record(QueueDelta::Kind kind, std::int32_t position,
                      Credit credit, util::ListHook* hook) noexcept {
    stage_delta(0, kind, position, credit, hook);
    publish_staged_deltas(1);
  }

  CpuId cpu_;
  util::Spinlock lock_;
  VcpuList queue_;
  std::atomic<std::uint64_t> version_{0};
  std::array<QueueDelta, kJournalCapacity> journal_{};

  // The DVFS-relevant load variable with its own lock, as described in
  // §1/§3.1: "the update of a lock-protected variable, which represents
  // the vCPUs' load on each CPU".
  mutable util::Spinlock load_lock_;
  double load_ = 0.0;
  PeltLoadTracker pelt_;

  util::EpochReclaimer epoch_;
};

}  // namespace horse::sched
