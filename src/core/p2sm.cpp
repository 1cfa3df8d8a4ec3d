#include "core/p2sm.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "sched/credit_scan.hpp"
#include "util/dcheck.hpp"
#include "util/fault_injection.hpp"

namespace horse::core {

namespace {

sched::Vcpu* vcpu_of(util::ListHook* hook) noexcept {
  return sched::VcpuList::from_hook(hook);
}

}  // namespace

const P2smIndex::RunEntry* P2smIndex::RunsView::find(
    AnchorIndex anchor) const noexcept {
  const RunEntry* it = std::lower_bound(
      data_, data_ + size_, anchor,
      [](const RunEntry& entry, AnchorIndex key) { return entry.anchor < key; });
  return (it != data_ + size_ && it->anchor == anchor) ? it : nullptr;
}

P2smIndex::AnchorIndex P2smIndex::anchor_for(sched::Credit credit) const noexcept {
  // First element of B strictly greater than `credit`; everything before
  // it is <= credit, so the anchor is the element just before it. The
  // hybrid scan counts <=credit linearly (SIMD/branch-free) on the short
  // snapshots the hot path sees and falls back to a cmov binary search on
  // long ones; identical result to std::upper_bound on sorted creditsB.
  if (branchless_) {
    return static_cast<AnchorIndex>(
               sched::credit_scan::credit_upper_bound(credits_b_, b_size_,
                                                      credit)) -
           1;
  }
  const auto it = std::upper_bound(credits_b_, credits_b_ + b_size_, credit);
  return static_cast<AnchorIndex>(it - credits_b_) - 1;
}

void P2smIndex::ensure_b_capacity(std::size_t needed) {
  if (b_capacity_ >= needed) {
    return;  // steady state: the recycled block absorbs the snapshot
  }
  std::size_t cap = b_capacity_ == 0 ? 64 : b_capacity_;
  while (cap < needed) {
    cap *= 2;
  }
  b_block_ = std::make_unique<std::byte[]>(
      cap * (sizeof(util::ListHook*) + sizeof(sched::Credit)));
  b_capacity_ = cap;
  hooks_b_ = reinterpret_cast<util::ListHook**>(b_block_.get());
  credits_b_ = reinterpret_cast<sched::Credit*>(
      b_block_.get() + cap * sizeof(util::ListHook*));
}

void P2smIndex::rebuild(sched::VcpuList& a, sched::RunQueue& b) {
  ensure_b_capacity(b.size());
  b_size_ = 0;
  for (sched::Vcpu& vcpu : b.list()) {
    hooks_b_[b_size_] = &vcpu.hook;
    credits_b_[b_size_] = vcpu.credit;
    ++b_size_;
  }

  // Partition A (sorted) into maximal runs per anchor. Anchors are
  // non-decreasing along A, so a single pass appends in sorted order.
  // Capacity note: runs never outnumber A nodes, so reserving |A| once
  // makes this pass allocation-free at stable sizes.
  pos_a_.clear();
  if (pos_a_.capacity() < a.size()) {
    pos_a_.reserve(a.size());
  }
  // Pre-size the splice buffer HERE (pause-time) so merge()'s reserve is
  // a guaranteed no-op: the resume hot path must stay allocation-free
  // even on the first merge of a freshly built index (fig3
  // --strict-alloc gates on this).
  if (task_buffer_.capacity() < a.size()) {
    task_buffer_.reserve(a.size());
  }
  for (sched::Vcpu& vcpu : a) {
    const AnchorIndex anchor = anchor_for(vcpu.credit);
    if (pos_a_.empty() || pos_a_.back().anchor != anchor) {
      pos_a_.push_back(RunEntry{anchor, Run{&vcpu.hook, &vcpu.hook, 1}});
    } else {
      Run& run = pos_a_.back().run;
      run.tail = &vcpu.hook;
      ++run.count;
    }
  }

  built_version_ = b.version();
  built_ = true;
  poisoned_ = false;  // a full recompute cures any earlier poisoning
  ++stats_.rebuilds;

  // Injected corruption: mark the freshly built anchor table untrustworthy.
  // No real structure is damaged (a truly scrambled pos_a_ would make the
  // *next* rebuild read freed memory); the poison flag makes merge() and
  // the audit behave exactly as if the corruption had been detected, which
  // is the contract the degradation ladder is tested against.
  if (HORSE_FAULT_POINT("p2sm.rebuild.corrupt_anchor")) {
    poisoned_ = true;
    return;  // skip the self-audit: it would (correctly) refuse the index
  }
  HORSE_DCHECK_OK(audit(a, b));
}

util::Status P2smIndex::audit(sched::VcpuList& a,
                              const sched::RunQueue& b) const {
  if (!built_) {
    return {util::StatusCode::kFailedPrecondition, "p2sm audit: index not built"};
  }
  if (poisoned_) {
    return {util::StatusCode::kInternal,
            "p2sm audit: index poisoned (corrupt anchor table)"};
  }

  // creditsB ordering.
  for (std::size_t i = 1; i < b_size_; ++i) {
    if (credits_b_[i] < credits_b_[i - 1]) {
      return {util::StatusCode::kInternal,
              "p2sm audit: creditsB not ascending at " + std::to_string(i)};
    }
  }
  if (fresh(b)) {
    // Only dereference the cached hooks when B is structurally unchanged
    // since the snapshot; on a stale index they may dangle.
    if (b_size_ != b.size()) {
      return {util::StatusCode::kInternal,
              "p2sm audit: fresh index but arrayB size " +
                  std::to_string(b_size_) + " != |B| " +
                  std::to_string(b.size())};
    }
    for (std::size_t i = 0; i < b_size_; ++i) {
      if (vcpu_of(hooks_b_[i])->credit != credits_b_[i]) {
        return {util::StatusCode::kInternal,
                "p2sm audit: cached credit diverges from live vCPU at " +
                    std::to_string(i) + " (B mutated under a fresh index?)"};
      }
    }
  }

  // Anchors monotone and in range. The flat table is kept sorted by
  // construction, so the monotonicity check guards insert_into_a's
  // placement; the range check is the live one.
  AnchorIndex prev_anchor = kBeforeHead - 1;
  for (const auto& [anchor, run] : runs()) {
    if (anchor <= prev_anchor) {
      return {util::StatusCode::kInternal, "p2sm audit: anchors not monotone"};
    }
    if (anchor < kBeforeHead || anchor >= static_cast<AnchorIndex>(b_size_)) {
      return {util::StatusCode::kInternal,
              "p2sm audit: anchor " + std::to_string(anchor) +
                  " outside [-1, " + std::to_string(b_size_) + ")"};
    }
    if (run.head == nullptr || run.tail == nullptr || run.count == 0) {
      return {util::StatusCode::kInternal,
              "p2sm audit: degenerate run at anchor " + std::to_string(anchor)};
    }
    prev_anchor = anchor;
  }

  // Runs partition A: walking A front-to-back must visit each run's
  // [head..tail] exactly once, in anchor order, covering every node.
  auto run_it = runs().begin();
  const auto run_end = runs().end();
  std::size_t remaining_in_run = 0;
  std::size_t covered = 0;
  const util::ListHook* expected_tail = nullptr;
  for (sched::Vcpu& vcpu : a) {
    if (remaining_in_run == 0) {
      if (run_it == run_end) {
        return {util::StatusCode::kInternal,
                "p2sm audit: A has nodes beyond the last run"};
      }
      if (run_it->run.head != &vcpu.hook) {
        return {util::StatusCode::kInternal,
                "p2sm audit: run head does not match A order at anchor " +
                    std::to_string(run_it->anchor)};
      }
      remaining_in_run = run_it->run.count;
      expected_tail = run_it->run.tail;
    }
    if (anchor_for(vcpu.credit) != run_it->anchor) {
      return {util::StatusCode::kInternal,
              "p2sm audit: node anchored to " +
                  std::to_string(anchor_for(vcpu.credit)) + " but run is " +
                  std::to_string(run_it->anchor)};
    }
    --remaining_in_run;
    ++covered;
    if (remaining_in_run == 0) {
      if (expected_tail != &vcpu.hook) {
        return {util::StatusCode::kInternal,
                "p2sm audit: run tail does not match A order at anchor " +
                    std::to_string(run_it->anchor)};
      }
      ++run_it;
    }
  }
  if (remaining_in_run != 0 || run_it != run_end) {
    return {util::StatusCode::kInternal,
            "p2sm audit: runs extend beyond A (count drift)"};
  }
  if (covered != a.size()) {
    return {util::StatusCode::kInternal,
            "p2sm audit: runs cover " + std::to_string(covered) +
                " nodes but |A| is " + std::to_string(a.size())};
  }
  return util::Status::ok();
}

util::Status P2smIndex::insert_into_a(sched::VcpuList& a, sched::Vcpu& vcpu,
                                      const sched::RunQueue& b) {
  if (!fresh(b)) {
    return {util::StatusCode::kFailedPrecondition,
            "p2sm: index stale; rebuild before A-side updates"};
  }
  if (poisoned_) {
    return {util::StatusCode::kFailedPrecondition,
            "p2sm: index poisoned; rebuild before A-side updates"};
  }
  if (HORSE_FAULT_POINT("p2sm.insert.fault")) {
    // Fires before any mutation: caller-visible failure with A, the run
    // table, and the vCPU all untouched (hotplug rolls back cleanly).
    return {util::StatusCode::kInternal,
            "p2sm: injected incremental-insert failure"};
  }
  const AnchorIndex anchor = anchor_for(vcpu.credit);
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(pos_a_.begin(), pos_a_.end(), anchor,
                       [](const RunEntry& entry, AnchorIndex key) {
                         return entry.anchor < key;
                       }) -
      pos_a_.begin());
  if (idx == pos_a_.size() || pos_a_[idx].anchor != anchor) {
    // New run. Its position inside A is immediately before the head of
    // the next run (runs are ordered by anchor along A), or at A's end.
    if (idx == pos_a_.size()) {
      a.push_back(vcpu);
    } else {
      a.insert(sched::VcpuList::iterator(pos_a_[idx].run.head), vcpu);
    }
    pos_a_.insert(pos_a_.begin() + static_cast<std::ptrdiff_t>(idx),
                  RunEntry{anchor, Run{&vcpu.hook, &vcpu.hook, 1}});
  } else {
    // Extend an existing run: walk it to keep A credit-sorted.
    Run& run = pos_a_[idx].run;
    util::ListHook* node = run.head;
    util::ListHook* insert_before = nullptr;
    for (std::size_t i = 0; i < run.count; ++i) {
      if (vcpu_of(node)->credit > vcpu.credit) {
        insert_before = node;
        break;
      }
      node = node->next;
    }
    if (insert_before == nullptr) {
      // Belongs after the run's current tail.
      a.insert(++sched::VcpuList::iterator(run.tail), vcpu);
      run.tail = &vcpu.hook;
    } else {
      a.insert(sched::VcpuList::iterator(insert_before), vcpu);
      if (insert_before == run.head) {
        run.head = &vcpu.hook;
      }
    }
    ++run.count;
  }
  ++stats_.incremental_inserts;
  HORSE_DCHECK_OK(audit(a, b));
  return util::Status::ok();
}

util::Status P2smIndex::remove_from_a(sched::VcpuList& a, sched::Vcpu& vcpu) {
  if (!built_) {
    return {util::StatusCode::kFailedPrecondition, "p2sm: index not built"};
  }
  if (poisoned_) {
    return {util::StatusCode::kFailedPrecondition,
            "p2sm: index poisoned; rebuild before A-side updates"};
  }
  if (HORSE_FAULT_POINT("p2sm.remove.fault")) {
    return {util::StatusCode::kInternal,
            "p2sm: injected incremental-remove failure"};
  }
  // Find the run containing the vCPU (paper: O(m) worst case — all of A
  // in one run with the victim last).
  for (std::size_t r = 0; r < pos_a_.size(); ++r) {
    Run& run = pos_a_[r].run;
    util::ListHook* node = run.head;
    for (std::size_t i = 0; i < run.count; ++i) {
      util::ListHook* next = node->next;
      if (node == &vcpu.hook) {
        if (run.count == 1) {
          pos_a_.erase(pos_a_.begin() + static_cast<std::ptrdiff_t>(r));
        } else {
          if (run.head == node) {
            run.head = next;
          }
          if (run.tail == node) {
            run.tail = node->prev;
          }
          --run.count;
        }
        a.erase(vcpu);
        ++stats_.incremental_removes;
        return util::Status::ok();
      }
      node = next;
    }
  }
  return {util::StatusCode::kNotFound, "p2sm: vcpu not indexed"};
}

util::Status P2smIndex::merge(sched::VcpuList& a, sched::RunQueue& b,
                              MergeExecutor& executor) {
  if (!fresh(b)) {
    return {util::StatusCode::kFailedPrecondition,
            "p2sm: index stale; cannot O(1)-merge"};
  }
  if (poisoned_) {
    return {util::StatusCode::kInternal,
            "p2sm: index poisoned; cannot trust the precomputed splices"};
  }
  if (a.size() == 0) {
    return {util::StatusCode::kFailedPrecondition, "p2sm: empty source list"};
  }
  HORSE_DCHECK_OK(audit(a, b));

  // Materialise the splice set. task_buffer_ is reused so the steady-state
  // merge allocates nothing. The loop streams the repacked RunEntry table
  // (two entries per cache line) and prefetches one entry ahead plus the
  // anchor hook that entry will dereference, so the splice build never
  // stalls on a cold arrayB node.
  task_buffer_.clear();
  task_buffer_.reserve(pos_a_.size());
  std::size_t total = 0;
  const RunEntry* entries = pos_a_.data();
  const std::size_t n_runs = pos_a_.size();
  for (std::size_t r = 0; r < n_runs; ++r) {
    if (r + 1 < n_runs) {
      sched::credit_scan::prefetch(entries + r + 1);
      const AnchorIndex next_anchor = entries[r + 1].anchor;
      if (next_anchor != kBeforeHead) {
        sched::credit_scan::prefetch(
            hooks_b_[static_cast<std::size_t>(next_anchor)]);
      }
    }
    const AnchorIndex anchor = entries[r].anchor;
    const Run& run = entries[r].run;
    util::ListHook* anchor_hook =
        anchor == kBeforeHead ? b.list().sentinel()
                              : hooks_b_[static_cast<std::size_t>(anchor)];
    task_buffer_.push_back(SpliceTask{anchor_hook, run.head, run.tail});
    total += run.count;
  }
  assert(total == a.size());

  // Detach A's container bookkeeping first (O(1)); the nodes themselves
  // are re-linked by the splices.
  const auto chain = a.take_all();
  (void)chain;

  executor.execute(task_buffer_);

  b.list().add_size(total);
  b.bump_version(total);
  built_ = false;  // consumed
  pos_a_.clear();
  ++stats_.merges;
  // The post-merge queue must be a sorted, fully closed ring: this is the
  // check that catches a mis-spliced (non-disjoint) task set.
  HORSE_DCHECK_OK(b.check_invariants(/*require_sorted=*/true));
  return util::Status::ok();
}

std::size_t P2smIndex::memory_bytes() const noexcept {
  return b_capacity_ * (sizeof(util::ListHook*) + sizeof(sched::Credit)) +
         pos_a_.capacity() * sizeof(RunEntry) +
         task_buffer_.capacity() * sizeof(SpliceTask);
}

}  // namespace horse::core
