#include "util/epoch.hpp"

#include "util/dcheck.hpp"
#include "util/fault_injection.hpp"
#include "util/yield_point.hpp"

namespace horse::util {

namespace {
// pin() sweeps before the DCHECK decides the slot array is not merely
// contended but wedged. With the capped 64-relax backoff this is on the
// order of seconds of wall time — far beyond any legitimate pin hold
// (a handful of splices), even with sanitizer slowdowns and descheduled
// holders in between.
constexpr std::uint64_t kPinStuckSweeps = std::uint64_t{1} << 26;
}  // namespace

std::size_t EpochReclaimer::pin() noexcept {
  // Claim any idle slot. With kReaderSlots comfortably above the number
  // of threads that ever touch one queue's indexes, the first probe
  // almost always wins. Nothing enforces that bound, though, so full
  // sweeps with no idle slot are accounted (slot_exhaustion_) and backed
  // off rather than spun silently; a sweep count that could only mean
  // every slot has been held for milliseconds trips the DCHECK on test
  // builds instead of presenting as a mystery hang.
  // Each thread starts its probe at its own slot, so two threads pinning
  // the same queue do not fight over one cache line.
  static std::atomic<std::size_t> next_home{0};
  thread_local const std::size_t home =
      next_home.fetch_add(1, std::memory_order_relaxed);
  for (std::uint64_t sweeps = 0;; ++sweeps) {
    for (std::size_t probe = 0; probe < kReaderSlots; ++probe) {
      const std::size_t i = (home + probe) % kReaderSlots;
      std::uint64_t expected = kIdle;
      if (reader_epochs_[i].value.compare_exchange_strong(
              expected, global_epoch_.load(std::memory_order_acquire),
              std::memory_order_acq_rel)) {
        // Publish-then-verify: if the global moved between our read and
        // our publish, a reclaimer may have scanned the slot before the
        // store landed. Republish until the global holds still.
        HORSE_YIELD_POINT("epoch.pin.publish");
        for (;;) {
          const std::uint64_t current =
              global_epoch_.load(std::memory_order_acquire);
          if (reader_epochs_[i].load(std::memory_order_relaxed) == current) {
            return i;
          }
          reader_epochs_[i].store(current, std::memory_order_seq_cst);
        }
      }
    }
    // Every slot occupied: more simultaneous readers than kReaderSlots.
    if (sweeps == 0) {
      slot_exhaustion_.fetch_add(1, std::memory_order_relaxed);
    }
    HORSE_DCHECK(sweeps < kPinStuckSweeps,
                 "epoch: all reader slots pinned for the whole spin "
                 "budget — more concurrent readers than kReaderSlots?");
    HORSE_YIELD_POINT("epoch.pin.exhausted");
    const std::uint64_t backoff = sweeps < 6 ? (std::uint64_t{1} << sweeps) : 64;
    for (std::uint64_t b = 0; b < backoff; ++b) {
      cpu_relax();
    }
  }
}

void EpochReclaimer::unpin(std::size_t slot) noexcept {
  reader_epochs_[slot].store(kIdle, std::memory_order_release);
}

void EpochReclaimer::retire(EpochRetireNode* node) noexcept {
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  std::atomic<EpochRetireNode*>& bucket = buckets_[epoch % kBuckets];
  HORSE_YIELD_POINT("epoch.retire.push");
  node->next = bucket.load(std::memory_order_relaxed);
  while (!bucket.compare_exchange_weak(node->next, node,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
  retired_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t EpochReclaimer::try_reclaim() noexcept {
  if (!reclaim_lock_.try_lock()) return 0;  // another reclaimer is at it
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);

  // The advance is legal only if every active reader is pinned at exactly
  // the current epoch — a reader still at epoch-1 may hold nodes retired
  // two buckets back, which are precisely what we are about to free.
  // The fault models a reader parked mid-epoch (e.g. a descheduled resume
  // thread): the advance must be declined, leaving the garbage pending.
  bool stalled_reader = HORSE_FAULT_POINT("sched.epoch.stall");
  for (std::size_t i = 0; i < kReaderSlots && !stalled_reader; ++i) {
    HORSE_YIELD_POINT("epoch.reclaim.scan");
    const std::uint64_t seen = reader_epochs_[i].load(std::memory_order_seq_cst);
    if (seen != kIdle && seen != epoch) stalled_reader = true;
  }
  if (stalled_reader) {
    reclaim_lock_.unlock();
    return 0;
  }

  // Grab the expired bucket (epoch-2 retirements) BEFORE publishing the
  // advance: once the global reads epoch+1, new retirements CAS-push onto
  // this same slot index, and they must not be freed this round.
  EpochRetireNode* expired =
      buckets_[(epoch + 1) % kBuckets].exchange(nullptr,
                                                std::memory_order_acquire);
  global_epoch_.store(epoch + 1, std::memory_order_seq_cst);
  reclaim_lock_.unlock();

  return destroy_list(expired);
}

void EpochReclaimer::drain() noexcept {
  LockGuard<Spinlock> guard(reclaim_lock_);
  for (auto& bucket : buckets_) {
    destroy_list(bucket.exchange(nullptr, std::memory_order_acquire));
  }
}

std::size_t EpochReclaimer::destroy_list(EpochRetireNode* head) noexcept {
  std::size_t destroyed = 0;
  while (head != nullptr) {
    EpochRetireNode* next = head->next;
    head->destroy(head->owner);
    ++destroyed;
    head = next;
  }
  if (destroyed > 0) reclaimed_.fetch_add(destroyed, std::memory_order_relaxed);
  return destroyed;
}

}  // namespace horse::util
