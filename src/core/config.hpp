// HORSE runtime configuration.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace horse::core {

struct HorseConfig {
  /// Number of reserved ull_runqueues (§4.1.3: one by default, more "in
  /// the case of a high frequency of uLL workload triggers"). Fixed for
  /// the lifetime of the UllRunQueueManager built from it.
  std::uint32_t num_ull_runqueues = 1;

  // --- resume hot-path tuning (E22 ablation arms flip these off) ---------

  /// Time resume stages with util::CycleClock (fenced rdtsc, one
  /// calibrated multiply per stage) instead of std::chrono reads, and
  /// record the per-stage ResumeCycleStats breakdown.
  bool cycle_timing = true;
  /// Branchless/SIMD credit comparisons: hybrid anchor search in the
  /// 𝒫²𝒮ℳ merge path, and the single-lock prefetching merge walk for the
  /// vanilla sorted-walk fallback (RunQueue::merge_sorted) instead of the
  /// per-vCPU insert_sorted loop.
  bool branchless_walk = true;

  void validate() const {
    if (num_ull_runqueues == 0) {
      throw std::invalid_argument("HorseConfig: need at least one ull_runqueue");
    }
  }
};

}  // namespace horse::core
