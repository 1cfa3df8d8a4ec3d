// Per-entity load tracking (PELT proper).
//
// The run-queue-level rule this project measures (§3.1 step ⑤:
// L(x) = αx + β per enqueued vCPU) is the hypervisor's aggregate view.
// Underneath, Linux/Xen track load per scheduling entity: time is divided
// into 1 ms periods; each period a running/runnable entity contributes,
// and history decays geometrically (y^32 = 0.5). A queue's load is the
// sum of its entities' averages, which is what makes load migrate with a
// vCPU instead of being re-learned.
//
// This module implements the entity side faithfully enough to validate
// the aggregate rule against it: EntityLoad accumulates running time with
// per-period decay, and EntityQueueLoad sums entities with O(1)
// attach/detach — tests cross-check convergence, decay and migration
// against the closed-form PeltLoadTracker.
#pragma once

#include <cstdint>

#include "sched/pelt.hpp"
#include "util/time.hpp"

namespace horse::sched {

/// PELT period: contributions are accounted in 1 ms windows (Linux's
/// PELT period), decayed once per period boundary.
inline constexpr util::Nanos kPeltPeriod = util::kMillisecond;

class EntityLoad {
 public:
  explicit EntityLoad(PeltParams params = {}) : params_(params) {
    params_.validate();
  }

  /// Account `duration` ns ending at absolute time `now`, with the entity
  /// runnable throughout. Decay for elapsed idle periods is applied first.
  void update_running(util::Nanos now, util::Nanos duration);

  /// Account idle time up to `now` (pure decay).
  void update_idle(util::Nanos now);

  /// Load average in the queue-load unit (converges to ~1024 for an
  /// always-runnable entity).
  [[nodiscard]] double load_avg() const noexcept { return load_avg_; }

 private:
  void decay_to(util::Nanos now);

  PeltParams params_{};
  double load_avg_ = 0.0;
  util::Nanos last_update_ = 0;
};

/// Queue-level aggregation: load = Σ entity load_avg, maintained
/// incrementally as entities attach (enqueue/migrate in) and detach
/// (dequeue/migrate out) — the mechanism that makes a migrated vCPU carry
/// its load with it.
class EntityQueueLoad {
 public:
  void attach(const EntityLoad& entity) noexcept {
    total_ += entity.load_avg();
    ++entities_;
  }
  void detach(const EntityLoad& entity) noexcept {
    total_ -= entity.load_avg();
    if (total_ < 0.0) {
      total_ = 0.0;
    }
    --entities_;
  }

  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] std::uint32_t entities() const noexcept { return entities_; }

 private:
  double total_ = 0.0;
  std::uint32_t entities_ = 0;
};

}  // namespace horse::sched
