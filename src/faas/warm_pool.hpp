// Warm sandbox pool: keep-alive + provisioned concurrency.
//
// Models the two sources of warm starts the paper lists (§1): a fixed
// keep-alive window after a function finishes, and a subscribed
// "provisioned" floor of always-ready sandboxes (Azure Premium / Lambda
// Provisioned Concurrency / Alibaba Provisioned Mode). Pooled sandboxes
// are paused, per the paper's premise that idle warm sandboxes must not
// contend with running ones.
//
// Thread-safety: none of its own — the pool is a striped resource. Each
// control-plane shard owns one WarmPool instance covering the functions
// that hash to it, and every access goes through that shard's mutex (see
// faas/platform.hpp); a standalone WarmPool needs external locking.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "faas/registry.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "vmm/sandbox.hpp"

namespace horse::faas {

struct WarmPoolConfig {
  /// Keep-alive window after an invocation completes (10 min is the
  /// commonly reported public-cloud default).
  util::Nanos keep_alive = 10LL * 60 * util::kSecond;
  /// Hard cap on pooled sandboxes per function.
  std::size_t max_per_function = 64;
};

class WarmPool {
 public:
  explicit WarmPool(WarmPoolConfig config = {}) : config_(config) {}

  /// Park a paused sandbox for reuse at logical time `now`. Fails when the
  /// per-function cap is reached or the sandbox is not poolable. On
  /// failure the sandbox is NOT silently destroyed: it is handed back
  /// through `rejected` (when non-null) so the caller can tear it down
  /// properly — destroying a sandbox means dequeuing its vCPUs and
  /// updating engine bookkeeping, which the pool cannot do. Passing
  /// rejected == nullptr reproduces the old drop-on-floor behaviour and
  /// is only acceptable when the sandbox owns no engine state.
  util::Status put(FunctionId function, std::unique_ptr<vmm::Sandbox> sandbox,
                   util::Nanos now,
                   std::unique_ptr<vmm::Sandbox>* rejected = nullptr);

  /// Take the most-recently-used warm sandbox (LIFO keeps caches warm).
  /// Returns nullptr on a miss — including an injected one (the
  /// warm_pool.take.miss fault site models a pooled sandbox found
  /// unusable at take time; the platform's ladder falls to a colder
  /// start).
  [[nodiscard]] std::unique_ptr<vmm::Sandbox> take(FunctionId function);

  /// Provisioned-concurrency floor: pool refills up to this count are the
  /// platform's job (Platform::provision); eviction never drops below it.
  void set_provisioned_floor(FunctionId function, std::size_t count) {
    floors_[function] = count;
  }
  [[nodiscard]] std::size_t provisioned_floor(FunctionId function) const {
    const auto it = floors_.find(function);
    return it == floors_.end() ? 0 : it->second;
  }

  /// Per-function keep-alive override (e.g. from the hybrid-histogram
  /// policy); functions without one use the config default.
  void set_keep_alive_override(FunctionId function, util::Nanos keep_alive) {
    keep_alive_overrides_[function] = keep_alive;
  }
  [[nodiscard]] util::Nanos keep_alive_for(FunctionId function) const {
    const auto it = keep_alive_overrides_.find(function);
    return it == keep_alive_overrides_.end() ? config_.keep_alive : it->second;
  }

  /// Evict sandboxes idle past keep-alive, respecting provisioned floors.
  /// Returns the evicted sandboxes (caller destroys them properly).
  std::vector<std::unique_ptr<vmm::Sandbox>> evict_expired(util::Nanos now);

  /// Evict EVERY pooled sandbox, ignoring keep-alive and provisioned
  /// floors — the crash model: a dead host's warm state is gone, full
  /// stop. Floors and keep-alive overrides survive (they are policy, not
  /// state) so a rejoining host can be rehydrated back up to them.
  /// Returns the evicted sandboxes (caller destroys them properly).
  std::vector<std::unique_ptr<vmm::Sandbox>> evict_all();

  [[nodiscard]] std::size_t available(FunctionId function) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  /// Calls `visit(function, sandbox)` for every pooled sandbox.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [function, entries] : pools_) {
      for (const Entry& entry : entries) {
        visit(function, static_cast<const vmm::Sandbox&>(*entry.sandbox));
      }
    }
  }

 private:
  struct Entry {
    std::unique_ptr<vmm::Sandbox> sandbox;
    util::Nanos parked_at = 0;
  };

  WarmPoolConfig config_;
  std::unordered_map<FunctionId, std::deque<Entry>> pools_;
  std::unordered_map<FunctionId, std::size_t> floors_;
  std::unordered_map<FunctionId, util::Nanos> keep_alive_overrides_;
  std::size_t total_ = 0;
};

}  // namespace horse::faas
