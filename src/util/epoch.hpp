// Epoch-based reclamation for retired run-table nodes.
//
// The kHorse resume path reads a sandbox's 𝒫²𝒮ℳ index while another
// thread may be destroying that sandbox. Freeing the index inline at
// destroy would pull the memory out from under such a reader. Instead the
// owner *retires* the node to a per-queue EpochReclaimer and the actual
// destruction happens later, off the hot path, once every in-flight
// reader has provably moved on.
//
// Scheme (classic 3-epoch EBR, sized for a handful of readers per queue):
//  - A global epoch counter e and kReaderSlots padded reader slots.
//  - Readers pin: claim a slot, publish the current epoch into it, and
//    re-check the global (publish-then-verify) so a concurrent advance
//    cannot miss them. Unpin stores the kIdle sentinel.
//  - retire(node) CAS-pushes onto bucket[e % 3]. Zero allocation: the
//    link lives inside the retired object (EpochRetireNode is intrusive).
//  - try_reclaim() advances e -> e+1 only when every pinned reader is at
//    exactly e. It grabs bucket[(e+1) % 3] — retirements from e-2, which
//    no reader pinned at e can still reference — *before* publishing the
//    advance, then frees the grabbed chain. Reclaimers serialize on an
//    internal spinlock; readers and retirers never block.
//
// Lock hierarchy: pin/unpin/retire are lock-free and may be called under
// any lock at or below the ull-manager mutex (the resume path pins in
// UllRunQueueManager::lookup() with no lock; UllRunQueueManager::release()
// retires a node only after the destroyed sandbox stops pointing at it).
// try_reclaim takes only its internal spinlock and must be called with no
// queue Spinlock held — maintenance paths (track/refresh) call it, resume
// never does.
//
// Fault site `sched.epoch.stall` models a reader stalled mid-epoch: a
// reclaim attempt sees it and declines, leaving garbage pending but
// bounded (at most the retirements of the last three epochs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/align.hpp"
#include "util/spinlock.hpp"

namespace horse::util {

/// Intrusive hook carried by every object that can be retired. `destroy`
/// receives `owner` and must free the whole object (including this node).
struct EpochRetireNode {
  EpochRetireNode* next = nullptr;
  void* owner = nullptr;
  void (*destroy)(void*) = nullptr;
};

class EpochReclaimer {
 public:
  static constexpr std::size_t kReaderSlots = 16;

  EpochReclaimer() noexcept {
    for (auto& slot : reader_epochs_) slot.store(kIdle, std::memory_order_relaxed);
  }
  ~EpochReclaimer() { drain(); }
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  /// Pin the calling thread into the current epoch. Returns the claimed
  /// slot. With more than kReaderSlots threads pinned simultaneously —
  /// a contract violation; nothing here can make a slot appear — it
  /// spins (with backoff) until one frees, counting the event in
  /// slot_exhaustion() and aborting via HORSE_DCHECK on test builds
  /// once the spin is clearly a hang rather than a transient.
  std::size_t pin() noexcept;

  /// Release a slot returned by pin(). Nodes read since pin() must not be
  /// dereferenced afterwards.
  void unpin(std::size_t slot) noexcept;

  /// Hand a node to the reclaimer. Lock-free; safe under any lock. The
  /// node must already be unreachable for *new* readers (e.g. erased from
  /// the owning map) — epochs only protect readers that looked it up
  /// before that point.
  void retire(EpochRetireNode* node) noexcept;

  /// Attempt one epoch advance + free of the expired bucket. Returns the
  /// number of nodes destroyed (0 when a pinned reader blocks the
  /// advance). Must not be called while holding a queue lock or while the
  /// calling thread itself is pinned.
  std::size_t try_reclaim() noexcept;

  /// Destroy everything still pending regardless of epochs. Only safe
  /// when no reader can be pinned (destructor / teardown).
  void drain() noexcept;

  /// Nodes retired but not yet destroyed.
  [[nodiscard]] std::uint64_t pending() const noexcept {
    return retired_.load(std::memory_order_relaxed) -
           reclaimed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retired() const noexcept {
    return retired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reclaimed() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_relaxed);
  }

  /// Times pin() found every reader slot occupied and had to wait for
  /// one (counted once per affected pin() call). Nonzero means the
  /// process ran more simultaneous readers than kReaderSlots — size the
  /// slot array up or fix the caller.
  [[nodiscard]] std::uint64_t slot_exhaustion() const noexcept {
    return slot_exhaustion_.load(std::memory_order_relaxed);
  }

  /// RAII pin covering a read-side critical section.
  class ReadGuard {
   public:
    explicit ReadGuard(EpochReclaimer& reclaimer) noexcept
        : reclaimer_(&reclaimer), slot_(reclaimer.pin()) {}
    ~ReadGuard() {
      if (reclaimer_ != nullptr) reclaimer_->unpin(slot_);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    EpochReclaimer* reclaimer_;
    std::size_t slot_;
  };

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  static constexpr std::size_t kBuckets = 3;

  std::size_t destroy_list(EpochRetireNode* head) noexcept;

  std::atomic<std::uint64_t> global_epoch_{0};
  PaddedAtomic<std::uint64_t> reader_epochs_[kReaderSlots] = {};
  std::atomic<EpochRetireNode*> buckets_[kBuckets] = {};
  Spinlock reclaim_lock_;
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> slot_exhaustion_{0};
};

}  // namespace horse::util
