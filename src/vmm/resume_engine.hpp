// The vanilla pause/resume path of the virtualization system, instrumented
// step by step exactly as §3.1 of the paper decomposes it:
//
//   ① parse the resume command's input parameters
//   ② acquire the global lock that serialises concurrent resumes
//   ③ sanity checks (target sandbox is actually paused, ...)
//   ④ for each vCPU: find a run queue and sorted-merge the vCPU into it
//   ⑤ for each inserted vCPU: update the run queue's lock-protected load
//   ⑥ release the lock, flip the sandbox to running
//
// Steps ④ and ⑤ run for real on the scheduler substrate and are timed
// with the monotonic clock; the control-plane costs a user-space
// reproduction cannot execute (KVM ioctls / XenStore ops) are added
// arithmetically from the VmmProfile and attributed to the step they
// belong to, so breakdown percentages remain comparable to Figure 2.
//
// HorseResumeEngine (core/horse_resume.hpp) derives from this class and
// replaces steps ④/⑤ with 𝒫²𝒮ℳ and the coalesced load update.
#pragma once

#include <cstdint>

#include <memory>

#include "sched/credit2.hpp"
#include "sched/topology.hpp"
#include "util/cycle_clock.hpp"
#include "util/spinlock.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "vmm/profile.hpp"
#include "vmm/sandbox.hpp"
#include "vmm/xenstore.hpp"

namespace horse::vmm {

/// Stage timer for the resume breakdown. With `cycles` (the default) each
/// boundary read is one fenced rdtsc (~10 ns) converted by a calibrated
/// multiply; without it, the original std::chrono reads (~20-25 ns each
/// through the vDSO) — the E22 scalar baseline arm, and the automatic
/// behaviour on targets where CycleClock has no counter. With ~12 reads
/// on a full resume, the timing source alone is worth >100 ns of measured
/// path.
class StageTimer {
 public:
  explicit StageTimer(bool cycles) noexcept : cycles_(cycles) { restart(); }

  void restart() noexcept {
    start_ = cycles_ ? util::CycleClock::now()
                     : static_cast<std::uint64_t>(util::monotonic_now());
  }
  [[nodiscard]] util::Nanos elapsed() const noexcept {
    if (cycles_) {
      return util::CycleClock::cycles_to_nanos(util::CycleClock::now() -
                                               start_);
    }
    return util::monotonic_now() - static_cast<util::Nanos>(start_);
  }
  /// elapsed(), then restart from the same reading: one read per stage
  /// boundary when stages run back to back.
  [[nodiscard]] util::Nanos lap() noexcept {
    const std::uint64_t from = start_;
    restart();
    return cycles_ ? util::CycleClock::cycles_to_nanos(start_ - from)
                   : static_cast<util::Nanos>(start_ - from);
  }
  /// The raw reading at the last boundary (a cycle count in cycle mode).
  [[nodiscard]] std::uint64_t mark() const noexcept { return start_; }

 private:
  bool cycles_;
  std::uint64_t start_;
};

/// Per-step timing of one resume call, in nanoseconds. Field names follow
/// the paper's circled step numbers.
struct ResumeBreakdown {
  util::Nanos parse = 0;        // ① (includes modelled control-plane cost)
  util::Nanos lock = 0;         // ②
  util::Nanos sanity = 0;       // ③
  util::Nanos merge = 0;        // ④ (includes modelled per-vCPU tax)
  util::Nanos load_update = 0;  // ⑤
  util::Nanos finalize = 0;     // ⑥

  [[nodiscard]] util::Nanos total() const noexcept {
    return parse + lock + sanity + merge + load_update + finalize;
  }

  /// Share of the resume spent in the two contested steps (④+⑤); the
  /// paper measures 87.5%-93.1% for the vanilla path.
  [[nodiscard]] double contested_fraction() const noexcept {
    const util::Nanos t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(merge + load_update) /
                        static_cast<double>(t);
  }
};

/// Raw boundaries of steps ①-③ as run_prologue's StageTimer read them
/// (cycle counts when the engine times in cycles), for engines that
/// account stage cycles without reading the clock again.
struct PrologueStamps {
  std::uint64_t start = 0, parsed = 0, locked = 0, checked = 0;
};

class ResumeEngine {
 public:
  ResumeEngine(sched::CpuTopology& topology, VmmProfile profile);
  virtual ~ResumeEngine() = default;

  ResumeEngine(const ResumeEngine&) = delete;
  ResumeEngine& operator=(const ResumeEngine&) = delete;

  [[nodiscard]] const VmmProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] sched::CpuTopology& topology() noexcept { return topology_; }

  /// The control-plane store. Non-null only for the Xen flavour, whose
  /// lifecycle operations really read/write it (LightVM-style in-memory
  /// XenStore); Firecracker/KVM has no equivalent and models the ioctl
  /// cost instead.
  [[nodiscard]] XenStore* xenstore() noexcept { return xenstore_.get(); }

  /// Replace this engine's store with one shared across engines. The
  /// sharded control plane runs several engines against one topology; a
  /// pause recorded through engine A must be visible to a resume sanity
  /// check through engine B, so the Platform hands every engine the same
  /// (internally spinlocked) store. No-op semantics match the flavour:
  /// callers only share stores between engines of the same profile.
  void use_shared_xenstore(std::shared_ptr<XenStore> store) {
    xenstore_ = std::move(store);
  }

  // Thread-safety: start/pause/resume/destroy serialize on the engine's
  // own lock (the paper's step-② lock, which in the real hypervisor also
  // guards the other domain lifecycle operations). Different sandboxes
  // may be driven from different threads, and — since the sharded control
  // plane — different *engines* may run concurrently against the same
  // topology: per-queue locks protect queue structure, the shared
  // XenStore locks itself, and the HORSE ull manager is internally
  // locked. The one rule callers must keep is the single-owner invariant:
  // a given sandbox is driven through exactly one engine call at a time.
  // Direct access to the topology for instrumentation remains externally
  // synchronised.

  /// Place a created sandbox's vCPUs onto run queues and mark it running.
  /// (Boot-time scheduling; not part of the measured resume path.)
  util::Status start(Sandbox& sandbox);

  /// Remove the sandbox's vCPUs from their run queues and park them,
  /// credit-sorted, on the sandbox's merge_vcpus list.
  util::Status pause(Sandbox& sandbox);

  /// The six-step resume. On success the sandbox is running and all its
  /// vCPUs are linked into run queues. `breakdown`, when non-null,
  /// receives per-step timings.
  virtual util::Status resume(Sandbox& sandbox,
                              ResumeBreakdown* breakdown = nullptr);

  /// Fully tear down a sandbox (dequeue any runnable vCPUs).
  util::Status destroy(Sandbox& sandbox);

  /// Hot-plug one vCPU into a *paused* sandbox; it joins merge_vcpus at
  /// its credit-sorted position (credit 0 for a fresh vCPU). Derived
  /// engines also repair their fast-path state.
  util::Status hotplug_vcpu(Sandbox& sandbox);

  /// Hot-unplug the highest-numbered vCPU of a paused sandbox.
  util::Status unplug_vcpu(Sandbox& sandbox);

 protected:
  /// Pause body; runs with the engine lock held. Derived engines override
  /// this (NOT pause()) to add pause-time work.
  virtual util::Status pause_locked(Sandbox& sandbox);

  /// Hotplug bodies; run with the engine lock held.
  virtual util::Status hotplug_vcpu_locked(Sandbox& sandbox);
  virtual util::Status unplug_vcpu_locked(Sandbox& sandbox);

  /// Vanilla per-vCPU placement: least-loaded general queue.
  [[nodiscard]] virtual sched::CpuId select_cpu(const sched::Vcpu& vcpu);

  /// Step ① as real work: format-then-parse a resume command string and
  /// validate the sandbox id round-trips.
  [[nodiscard]] bool parse_resume_command(const Sandbox& sandbox) const;

  /// Record the sandbox's lifecycle state in the control-plane store
  /// (no-op for flavours without one).
  void record_state(const Sandbox& sandbox, std::string_view state);

  /// Control-plane state check used by the resume sanity step; true when
  /// no store exists (nothing to contradict the in-memory state machine).
  [[nodiscard]] bool control_plane_agrees(const Sandbox& sandbox,
                                          std::string_view state) const;

  /// Shared by derived classes: run steps ①-③, return false (and fill the
  /// status) if a sanity check fails. `stamps`, when non-null, receives
  /// the stage boundaries on success.
  util::Status run_prologue(Sandbox& sandbox, ResumeBreakdown& breakdown,
                            PrologueStamps* stamps = nullptr);

  /// Step ⑥ for derived classes.
  void run_epilogue(Sandbox& sandbox, ResumeBreakdown& breakdown);

  sched::CpuTopology& topology_;
  VmmProfile profile_;
  util::Spinlock resume_lock_;  // step ②: one resume at a time (per engine)
  std::shared_ptr<XenStore> xenstore_;  // shared across sharded engines
  /// Timing source for ResumeBreakdown stage boundaries (see StageTimer).
  /// Derived engines flip this off (HorseConfig::cycle_timing = false) to
  /// reproduce the chrono-timed baseline arm; the constructor calibrates
  /// CycleClock once so the first timed resume pays no calibration stall.
  bool cycle_timing_ = true;
};

}  // namespace horse::vmm
