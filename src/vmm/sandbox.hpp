// Sandbox: a microVM (Firecracker) or VM (Xen) as seen by the resume path.
//
// Owns its vCPUs (stable addresses — they are linked into intrusive run
// queues by pointer) and a scaled-down guest-memory image used by the
// snapshot/restore path. While paused, its vCPUs live on `merge_vcpus`,
// the credit-sorted list the paper introduces in §4.1.3 so that resume
// never has to iterate over vCPUs one by one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/vcpu.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace horse::core {
struct TrackedNode;
}  // namespace horse::core

namespace horse::vmm {

enum class SandboxState : std::uint8_t {
  kCreated,    // configured, never started
  kRunning,
  kPaused,     // vCPUs off the run queues, parked on merge_vcpus
  kDestroyed,
};

[[nodiscard]] constexpr std::string_view to_string(SandboxState state) noexcept {
  switch (state) {
    case SandboxState::kCreated: return "created";
    case SandboxState::kRunning: return "running";
    case SandboxState::kPaused: return "paused";
    case SandboxState::kDestroyed: return "destroyed";
  }
  return "unknown";
}

struct SandboxConfig {
  std::string name;
  std::uint32_t num_vcpus = 1;
  std::uint32_t memory_mb = 512;
  /// Marked at creation: uLL sandboxes are eligible for the HORSE fast
  /// path and the reserved ull_runqueues.
  bool ull = false;
};

/// Pause-time precomputation for load-update coalescing (§4.2.2): "we
/// compute αⁿ and β(1-αⁿ)/(1-α) and save these two values as an attribute
/// of the sandbox".
struct CoalescePrecompute {
  double alpha_n = 1.0;
  double beta_geo_sum = 0.0;
  bool valid = false;
};

/// HORSE fast-path state a uLL sandbox carries for the core ull manager
/// (§4.1.3): the reserved queue it was assigned at pause, and the
/// manager's node holding its 𝒫²𝒮ℳ index. vmm never dereferences the
/// node; the manager allocates it at the sandbox's first tracked pause,
/// rebuilds it in place on every later pause, and frees it when the
/// sandbox is destroyed (UllRunQueueManager::release). Only the sandbox's
/// single owner touches these fields.
struct UllSlot {
  static constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};
  /// Position in the manager's reserved-queue set, or kUnassigned.
  std::uint32_t queue = kUnassigned;
  core::TrackedNode* node = nullptr;
};

class Sandbox {
 public:
  Sandbox(sched::SandboxId id, SandboxConfig config);

  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  [[nodiscard]] sched::SandboxId id() const noexcept { return id_; }
  [[nodiscard]] const SandboxConfig& config() const noexcept { return config_; }
  [[nodiscard]] SandboxState state() const noexcept { return state_; }
  void set_state(SandboxState state) noexcept { state_ = state; }

  [[nodiscard]] std::uint32_t num_vcpus() const noexcept {
    return static_cast<std::uint32_t>(vcpus_.size());
  }
  [[nodiscard]] sched::Vcpu& vcpu(std::size_t index) { return *vcpus_.at(index); }
  [[nodiscard]] const std::vector<std::unique_ptr<sched::Vcpu>>& vcpus() const noexcept {
    return vcpus_;
  }

  // --- vCPU hot(un)plug, paused sandboxes only ----------------------------
  // Resizing happens while paused (as cloud resize does on stopped
  // instances). The caller — normally a ResumeEngine, which also repairs
  // the fast-path state — links/unlinks the vCPU in merge_vcpus.

  /// Append one vCPU (state kPaused, unlinked). Fails unless paused.
  util::Expected<sched::Vcpu*> add_vcpu();

  /// Drop the highest-numbered vCPU. Fails unless paused, if it is the
  /// last one, or if its hook is still linked anywhere.
  util::Status remove_last_vcpu();

  /// Credit-sorted list of this sandbox's vCPUs while paused (`merge_vcpus`
  /// in the paper). Populated by the pause path.
  [[nodiscard]] sched::VcpuList& merge_vcpus() noexcept { return merge_vcpus_; }

  [[nodiscard]] CoalescePrecompute& coalesce() noexcept { return coalesce_; }

  [[nodiscard]] UllSlot& ull_slot() noexcept { return ull_slot_; }
  [[nodiscard]] const UllSlot& ull_slot() const noexcept { return ull_slot_; }

  /// Scaled guest-memory image backing the snapshot/restore experiments.
  /// Real guests would map `memory_mb` MiB; we keep a 1/64-scale image so
  /// restore performs a real (but laptop-sized) page copy.
  [[nodiscard]] std::vector<std::byte>& guest_memory() noexcept { return guest_memory_; }
  [[nodiscard]] const std::vector<std::byte>& guest_memory() const noexcept {
    return guest_memory_;
  }
  static constexpr std::size_t kMemoryScaleDenominator = 64;

 private:
  sched::SandboxId id_;
  SandboxConfig config_;
  SandboxState state_ = SandboxState::kCreated;
  std::vector<std::unique_ptr<sched::Vcpu>> vcpus_;
  sched::VcpuList merge_vcpus_;
  CoalescePrecompute coalesce_;
  UllSlot ull_slot_;
  std::vector<std::byte> guest_memory_;
};

}  // namespace horse::vmm
