// HorseResumeEngine — the paper's fast resume path (§4).
//
// Same six-step skeleton as the vanilla ResumeEngine, with the two
// contested steps replaced:
//
//   ④ becomes one 𝒫²𝒮ℳ merge of the sandbox's pre-sorted merge_vcpus
//     list into its assigned ull_runqueue — O(1) splices instead of an
//     O(|queue|) sorted walk per vCPU;
//   ⑤ becomes a single coalesced load update from pause-time precomputed
//     factors instead of n lock round-trips.
//
// The pause path does the extra work that buys this: assign a reserved
// queue (load-balanced by paused-sandbox count), precompute the coalescing
// factors, and build the 𝒫²𝒮ℳ index. Individual feature toggles exist so
// the Figure-3 ablation (vanil / ppsm / coal / horse) runs through one
// engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/coalesce.hpp"
#include "core/config.hpp"
#include "core/merge_crew.hpp"
#include "core/ull_manager.hpp"
#include "metrics/histogram.hpp"
#include "util/spinlock.hpp"
#include "vmm/resume_engine.hpp"

namespace horse::core {

struct HorseFeatures {
  bool use_p2sm = true;
  bool use_coalescing = true;

  [[nodiscard]] static HorseFeatures all() { return {true, true}; }
  [[nodiscard]] static HorseFeatures ppsm_only() { return {true, false}; }
  [[nodiscard]] static HorseFeatures coalescing_only() { return {false, true}; }
};

/// Per-stage cycle accounting for the HORSE fast path. Recorded only when
/// HorseConfig::cycle_timing is on AND CycleClock has a real counter; the
/// stage sums are raw TSC cycles (convert with CycleClock::cycles_to_nanos
/// for reporting). Stage boundaries:
///   prologue   — steps ①-③, exactly parse + lock + sanity (the three
///                run_prologue stage timings, no extra clock read)
///   lookup     — the lock-free slot read + epoch pin
///   splice     — step ④ (in-place freshening of a stale index, 𝒫²𝒮ℳ merge
///                or the fallback walk), untrack, vCPU state
///   publish    — step ⑤ load update, step ⑥ epilogue
/// total_cycles is the whole-resume distribution (recorded in cycles, so
/// its quantiles are cycle counts, not nanoseconds).
struct ResumeCycleStats {
  std::uint64_t resumes = 0;
  std::uint64_t parse_cycles = 0;
  std::uint64_t lock_cycles = 0;
  std::uint64_t sanity_cycles = 0;
  std::uint64_t prologue_cycles = 0;
  std::uint64_t lookup_cycles = 0;
  std::uint64_t splice_cycles = 0;
  std::uint64_t publish_cycles = 0;
  metrics::Histogram total_cycles;
};

/// Counters for the engine's step-④ outcomes (monotonic; snapshot via
/// degradation_stats()). A stale index is not a degradation: step ④
/// rebuilds it in place under the queue lock and still splices in O(1),
/// counted as an in-place rebuild. Only an index that cannot be
/// trusted (poisoned) or a merge() error degrades to the vanilla sorted
/// walk; a degraded resume is still a *successful* resume — the sandbox
/// runs and the queue is sorted.
struct ResumeDegradationStats {
  /// Resumes that fell back to the vanilla sorted-merge walk (any cause).
  std::uint64_t fallback_merges = 0;
  /// Always 0: a stale index no longer falls back (see in_place_rebuilds).
  /// Kept only because the repository benchmark (perfbench/) prints it;
  /// remove it together with that line.
  std::uint64_t stale_index_fallbacks = 0;
  /// ... because the index was poisoned (corrupt anchor table).
  std::uint64_t poisoned_index_fallbacks = 0;
  /// ... because merge() itself reported an error.
  std::uint64_t merge_error_fallbacks = 0;
  /// Stale indexes brought fresh in step ④ by a rebuild under the queue
  /// lock.
  std::uint64_t in_place_rebuilds = 0;
};

class HorseResumeEngine final : public vmm::ResumeEngine {
 public:
  /// Standalone engine: owns its UllRunQueueManager and binds itself to
  /// every reserved queue. This is the pre-sharding shape, kept for tests,
  /// benches and single-engine deployments.
  HorseResumeEngine(sched::CpuTopology& topology, vmm::VmmProfile profile,
                    HorseConfig config = {},
                    HorseFeatures features = HorseFeatures::all());

  /// Sharded engine: shares a platform-owned manager with its sibling
  /// engines and binds itself to exactly one reserved queue, so HORSE
  /// resumes on different ull_runqueues serialise on different step-②
  /// locks. The manager must outlive the engine.
  HorseResumeEngine(sched::CpuTopology& topology, vmm::VmmProfile profile,
                    UllRunQueueManager& shared_manager, sched::CpuId bound_cpu,
                    HorseConfig config = {},
                    HorseFeatures features = HorseFeatures::all());

  ~HorseResumeEngine() override;

  [[nodiscard]] UllRunQueueManager& ull_manager() noexcept { return *ull_; }
  [[nodiscard]] const HorseConfig& config() const noexcept { return config_; }
  [[nodiscard]] const HorseFeatures& features() const noexcept { return features_; }
  [[nodiscard]] ResumeDegradationStats degradation_stats() const noexcept;

  /// Snapshot of the per-stage cycle accounting (copy under an internal
  /// spinlock; ~10 KB, so call this from reporting paths, not hot loops).
  [[nodiscard]] ResumeCycleStats cycle_stats() const;

  /// HORSE resume: prologue, then 𝒫²𝒮ℳ merge (step ④, freshening a stale
  /// index in place first) and coalesced load update (step ⑤), then
  /// epilogue. Falls back to the vanilla loop for non-uLL sandboxes or
  /// disabled features.
  util::Status resume(vmm::Sandbox& sandbox,
                      vmm::ResumeBreakdown* breakdown = nullptr) override;

 protected:
  /// HORSE pause: vanilla park + queue assignment + coalesce precompute +
  /// 𝒫²𝒮ℳ index build. Only uLL-flagged sandboxes get the fast path;
  /// others fall back to vanilla behaviour entirely.
  util::Status pause_locked(vmm::Sandbox& sandbox) override;

  /// Hot(un)plug with fast-path repair: the new/removed vCPU flows
  /// through the 𝒫²𝒮ℳ index's incremental insert/remove (§4.1.1's O(n)
  /// and O(m) operations) and the coalescing factors are recomputed for
  /// the new vCPU count.
  util::Status hotplug_vcpu_locked(vmm::Sandbox& sandbox) override;
  util::Status unplug_vcpu_locked(vmm::Sandbox& sandbox) override;

 private:
  void resume_fallback_merge(vmm::Sandbox& sandbox, sched::CpuId cpu,
                             vmm::ResumeBreakdown& breakdown);

  HorseConfig config_;
  HorseFeatures features_;
  /// Owned in the standalone shape, null in the sharded shape; ull_ is the
  /// manager actually used either way (declaration order matters: owned
  /// manager before the pointer that may alias it).
  std::unique_ptr<UllRunQueueManager> owned_ull_;
  UllRunQueueManager* ull_ = nullptr;
  LoadCoalescer coalescer_;
  /// Step ④'s splices run inline on the resuming thread (EXPERIMENTS.md
  /// E8: cross-core dispatch costs more than the splices at 1–36 vCPUs).
  SequentialMergeExecutor splicer_;

  // Cycle accounting. The recording site runs after the epilogue released
  // resume_lock_, so a spinlock (last in the lock hierarchy, leaf-only)
  // serialises engine-local recording against cycle_stats() snapshots.
  mutable util::Spinlock cycle_stats_lock_;
  ResumeCycleStats cycle_stats_;

  std::atomic<std::uint64_t> fallback_merges_{0};
  std::atomic<std::uint64_t> poisoned_index_fallbacks_{0};
  std::atomic<std::uint64_t> merge_error_fallbacks_{0};
  std::atomic<std::uint64_t> in_place_rebuilds_{0};
};

}  // namespace horse::core
