// 𝒫²𝒮ℳ — parallel precomputed sorted merge (§4.1 of the paper).
//
// Merges a sorted vCPU list A (a paused sandbox's `merge_vcpus`) into a
// sorted run queue B (the reserved ull_runqueue) in O(1) splice
// operations, by maintaining while the sandbox is paused:
//
//   arrayB : position-indexed snapshot of B's nodes (plus their credits,
//            kept separately so anchor search never chases pointers), and
//   posA   : anchor position in B  →  the maximal run of consecutive A
//            elements that belongs immediately after that position.
//            Key -1 designates "before B's first element"; its anchor is
//            the queue's sentinel, making the head case uniform.
//
// The merge phase turns each posA entry into one SpliceTask (two boundary
// rewrites). Distinct runs have distinct anchors and each task writes only
// its own anchor's `next`, its run's boundary pointers, and the *original*
// successor's `prev` — pairwise-disjoint fields, so the tasks can execute
// concurrently without locks, which is exactly the paper's Algorithm 1
// correctness argument.
//
// Freshness: the index snapshots B at a specific RunQueue::version(). Any
// structural change to B makes it stale, and the one way back is
// rebuild(), O(|A| + |B|): at pause time, and lazily in step ④ under the
// queue lock the resume already holds (§4.1.3: "the updates are performed
// each time ull_runqueue is updated"; DESIGN.md §5.4 has the deviation).
//
// Storage is allocation-free in steady state: posA is a sorted flat vector
// whose capacity is recycled across rebuilds, and arrayB/creditsB live in
// one SoA block (hooks then credits) that is reused and only grows
// geometrically. A rebuild at stable queue sizes touches the heap zero
// times (asserted by the allocation-counting test hook).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/merge_crew.hpp"
#include "sched/run_queue.hpp"
#include "sched/vcpu.hpp"
#include "util/align.hpp"
#include "util/status.hpp"

namespace horse::core {

struct P2smStats {
  std::uint64_t rebuilds = 0;
  std::uint64_t incremental_inserts = 0;
  std::uint64_t incremental_removes = 0;
  std::uint64_t merges = 0;
};

class P2smIndex {
 public:
  /// Anchor position in B; -1 is "before the first element".
  using AnchorIndex = std::int64_t;
  static constexpr AnchorIndex kBeforeHead = -1;

  /// A maximal run of consecutive A nodes sharing one anchor.
  struct Run {
    util::ListHook* head = nullptr;
    util::ListHook* tail = nullptr;
    std::size_t count = 0;
  };

  /// One run-table entry: anchor plus its run, stored contiguously in
  /// anchor order. Structured bindings decompose it exactly like the old
  /// map's value_type: `for (const auto& [anchor, run] : index.runs())`.
  ///
  /// Layout is load-bearing: the merge loop streams these sequentially and
  /// touches every field of every entry, so the entry is packed to exactly
  /// half a cache line and aligned to its own size — two entries per line,
  /// no entry ever straddling a line boundary, and the next-line prefetch
  /// in merge() always covers whole entries. The anchor leads because the
  /// splice-task build reads it first (it selects the anchor hook).
  struct alignas(32) RunEntry {
    AnchorIndex anchor = kBeforeHead;  // 8B: read first, selects anchor hook
    Run run;                           // 24B: head, tail, count
  };
  static_assert(sizeof(RunEntry) == 32,
                "RunEntry must stay exactly half a cache line: the merge "
                "loop's prefetch stride and the two-entries-per-line packing "
                "both assume 32 bytes");
  static_assert(alignof(RunEntry) == 32,
                "RunEntry must be self-aligned so no entry straddles a "
                "cache-line boundary");
  static_assert(util::kCacheLineSize % sizeof(RunEntry) == 0,
                "a cache line must hold a whole number of RunEntries");

  /// Opaque, container-agnostic view over the run table in anchor order.
  /// Callers iterate RunEntry values or look up by anchor; the backing
  /// container (today a sorted flat vector) is not part of the contract,
  /// so swapping it cannot break callers again.
  class RunsView {
   public:
    using const_iterator = const RunEntry*;

    [[nodiscard]] const_iterator begin() const noexcept { return data_; }
    [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] bool contains(AnchorIndex anchor) const noexcept {
      return find(anchor) != nullptr;
    }
    /// The run anchored at `anchor`; throws std::out_of_range when absent
    /// (map::at semantics — this is a test/introspection helper).
    [[nodiscard]] const Run& at(AnchorIndex anchor) const {
      const RunEntry* entry = find(anchor);
      if (entry == nullptr) {
        throw std::out_of_range("p2sm runs(): no run at requested anchor");
      }
      return entry->run;
    }

   private:
    friend class P2smIndex;
    RunsView(const RunEntry* data, std::size_t size) noexcept
        : data_(data), size_(size) {}
    [[nodiscard]] const RunEntry* find(AnchorIndex anchor) const noexcept;

    const RunEntry* data_;
    std::size_t size_;
  };

  P2smIndex() = default;

  // --- precomputation phase (§4.1.1) ------------------------------------

  /// Full recompute: O(|A| + |B|). Caller must hold B's lock or otherwise
  /// guarantee B is quiescent.
  void rebuild(sched::VcpuList& a, sched::RunQueue& b);

  /// True when the index still matches B's current structure.
  [[nodiscard]] bool fresh(const sched::RunQueue& b) const noexcept {
    return built_ && built_version_ == b.version();
  }
  [[nodiscard]] bool built() const noexcept { return built_; }
  void invalidate() noexcept {
    built_ = false;
    pos_a_.clear();
  }

  /// A poisoned index is one whose precomputed structures are suspected
  /// corrupt (detected — or injected via the p2sm.rebuild.corrupt_anchor
  /// fault site — during maintenance).
  /// merge()/insert/remove refuse it, the audit reports it, and the
  /// next rebuild() cures it. Freshness and poisoning are orthogonal: a
  /// poisoned index may still match B's version, but it must never be
  /// trusted for an O(1) splice.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  void poison() noexcept { poisoned_ = true; }

  /// A-side incremental insert (paper: O(n) position search + O(1) list
  /// insert). Inserts `vcpu` into A at its sorted position *and* extends
  /// the appropriate run. Requires a fresh index.
  util::Status insert_into_a(sched::VcpuList& a, sched::Vcpu& vcpu,
                             const sched::RunQueue& b);

  /// A-side incremental removal (paper: O(m) run walk). Unlinks `vcpu`
  /// from A and shrinks/erases its run. Requires a fresh index.
  util::Status remove_from_a(sched::VcpuList& a, sched::Vcpu& vcpu);

  // --- merge phase (§4.1.2, Algorithm 1) ---------------------------------

  /// Splice all of A into B. O(#runs) splice tasks executed by `executor`
  /// (possibly in parallel), independent of |A| and |B|. On return A is
  /// empty, B is sorted and contains every former A element, and the
  /// index is consumed (invalidated). B's version advances once per
  /// spliced vCPU, so co-resident indexes on the same queue read stale
  /// and rebuild. Caller must hold B's lock if other threads may mutate B
  /// concurrently.
  util::Status merge(sched::VcpuList& a, sched::RunQueue& b,
                     MergeExecutor& executor);

  /// Full audit of the precomputed structures against the live A and B,
  /// O(|A| + |B|). Verifies:
  ///   * arrayB/creditsB agreement: equal lengths, creditsB ascending, and
  ///     each cached credit equal to the credit of the vCPU its hook
  ///     belongs to (a divergence means B mutated under a "fresh" index);
  ///   * anchors strictly monotone, each within [-1, |B|);
  ///   * runs partition A: walking A front-to-back visits each run's
  ///     [head..tail] exactly once, in anchor order, with per-run node
  ///     counts summing to |A| and every run's nodes anchored correctly
  ///     (anchor_for(credit) == the run's anchor).
  /// Returns the first violation. rebuild()/merge() self-audit
  /// under HORSE_DCHECK; release builds never pay for this.
  [[nodiscard]] util::Status audit(sched::VcpuList& a,
                                   const sched::RunQueue& b) const;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::size_t run_count() const noexcept { return pos_a_.size(); }
  [[nodiscard]] std::size_t array_b_size() const noexcept { return b_size_; }
  [[nodiscard]] const P2smStats& stats() const noexcept { return stats_; }

  /// Approximate heap footprint of the precomputed structures, for the
  /// §5.2 memory-overhead experiment.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// The runs in anchor order (opaque view; see RunsView).
  [[nodiscard]] RunsView runs() const noexcept {
    return {pos_a_.data(), pos_a_.size()};
  }

  /// Select the credit-comparison strategy for the anchor search:
  /// branchless/SIMD hybrid (default) or the plain std::upper_bound (the
  /// E22 scalar baseline arm). Both produce identical results on sorted
  /// input — asserted by the 1024-seed equivalence sweep.
  void set_branchless(bool branchless) noexcept { branchless_ = branchless; }
  [[nodiscard]] bool branchless() const noexcept { return branchless_; }

 private:
  /// Largest index i with creditsB[i] <= credit, or kBeforeHead.
  [[nodiscard]] AnchorIndex anchor_for(sched::Credit credit) const noexcept;

  /// Grow the SoA block so it can hold `needed` B entries; rebuild()
  /// refills it from scratch. No-op when the block is already big enough
  /// — the steady-state path.
  void ensure_b_capacity(std::size_t needed);

  // B snapshot as one recycled SoA block: kBCapacity hook pointers, then
  // kBCapacity credits. Folding both arrays into a single allocation
  // halves the growth events and keeps the anchor search's credit scan
  // contiguous.
  std::unique_ptr<std::byte[]> b_block_;
  std::size_t b_capacity_ = 0;
  std::size_t b_size_ = 0;
  util::ListHook** hooks_b_ = nullptr;
  sched::Credit* credits_b_ = nullptr;

  // Run table: sorted by anchor, capacity recycled across rebuilds. A
  // rebuild reserves |A| entries, and runs never outnumber A nodes, so it
  // never reallocates at stable sizes.
  std::vector<RunEntry> pos_a_;
  std::vector<SpliceTask> task_buffer_;
  std::uint64_t built_version_ = 0;
  bool built_ = false;
  bool poisoned_ = false;
  bool branchless_ = true;
  P2smStats stats_;
};

}  // namespace horse::core
