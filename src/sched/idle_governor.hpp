// CPU idle-state (cpuidle) governor.
//
// Between uLL triggers the reserved ull_runqueue's CPU is idle, and what
// C-state it sleeps in bounds the *hardware* wake-up latency added on top
// of HORSE's software resume. The paper's related work (µDPM, AgileWatts,
// Yawn) attacks exactly this "killer microseconds" problem: C6 exit costs
// ~100 µs — three orders of magnitude over the ~150 ns fast path. This
// module models a menu-governor-style policy: per-CPU EWMA prediction of
// idle duration, deepest state whose target residency fits, with an
// optional per-CPU latency cap that uLL reservation sets to keep the
// ull_runqueue's CPU in shallow states.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace horse::sched {

struct CState {
  std::string_view name;
  /// Wake-up cost paid by the first task after idle.
  util::Nanos exit_latency = 0;
  /// Minimum profitable idle duration (entry+exit amortisation).
  util::Nanos target_residency = 0;
  /// Package power while resident, for energy comparisons.
  double power_watts = 0.0;
};

/// A typical server-class C-state table (Skylake-SP-like magnitudes).
[[nodiscard]] const std::vector<CState>& default_cstates();

struct IdleGovernorParams {
  /// EWMA smoothing for the per-CPU idle-duration predictor.
  double ewma_alpha = 0.3;
  /// Predictions start at this value until observations arrive.
  util::Nanos initial_prediction = 1 * util::kMillisecond;
};

class IdleGovernor {
 public:
  using Params = IdleGovernorParams;

  IdleGovernor(std::size_t num_cpus, std::vector<CState> states,
               Params params = {});
  explicit IdleGovernor(std::size_t num_cpus)
      : IdleGovernor(num_cpus, default_cstates()) {}

  /// Menu policy: deepest state whose target residency fits the predicted
  /// idle duration AND whose exit latency respects the CPU's cap.
  [[nodiscard]] std::size_t select(std::uint32_t cpu) const;

  /// Record an observed idle interval; updates the predictor.
  void observe_idle(std::uint32_t cpu, util::Nanos duration);

  /// Latency cap (QoS): states with exit_latency above it are off-limits
  /// on this CPU. uLL reservation sets ~0 to pin the CPU at C0/C1.
  void set_latency_cap(std::uint32_t cpu, util::Nanos cap);
  [[nodiscard]] util::Nanos latency_cap(std::uint32_t cpu) const;

  [[nodiscard]] util::Nanos predicted_idle(std::uint32_t cpu) const;
  [[nodiscard]] const CState& state(std::size_t index) const {
    return states_.at(index);
  }

  /// Wake-up latency the next trigger on `cpu` would pay right now.
  [[nodiscard]] util::Nanos wake_penalty(std::uint32_t cpu) const {
    return states_.at(select(cpu)).exit_latency;
  }

 private:
  std::vector<CState> states_;  // ordered shallow -> deep
  Params params_;
  std::vector<util::Nanos> predictions_;
  std::vector<util::Nanos> caps_;
  std::vector<bool> seeded_;
};

}  // namespace horse::sched
