#include "core/horse_resume.hpp"

#include <optional>
#include <utility>

#include "util/cycle_clock.hpp"
#include "util/epoch.hpp"
#include "util/fault_injection.hpp"

namespace horse::core {

HorseResumeEngine::HorseResumeEngine(sched::CpuTopology& topology,
                                     vmm::VmmProfile profile,
                                     HorseConfig config, HorseFeatures features)
    : vmm::ResumeEngine(topology, std::move(profile)),
      config_(config),
      features_(features),
      owned_ull_(std::make_unique<UllRunQueueManager>(topology, config)),
      ull_(owned_ull_.get()),
      coalescer_(topology.queue(0).pelt().params()) {
  config_.validate();
  cycle_timing_ = config_.cycle_timing;
  // Standalone shape: this engine serves every reserved queue.
  for (const sched::CpuId cpu : ull_->ull_cpus()) {
    ull_->bind_engine(cpu, this);
  }
}

HorseResumeEngine::HorseResumeEngine(sched::CpuTopology& topology,
                                     vmm::VmmProfile profile,
                                     UllRunQueueManager& shared_manager,
                                     sched::CpuId bound_cpu, HorseConfig config,
                                     HorseFeatures features)
    : vmm::ResumeEngine(topology, std::move(profile)),
      config_(config),
      features_(features),
      ull_(&shared_manager),
      coalescer_(topology.queue(0).pelt().params()) {
  config_.validate();
  cycle_timing_ = config_.cycle_timing;
  ull_->bind_engine(bound_cpu, this);
}

HorseResumeEngine::~HorseResumeEngine() { ull_->unbind_engine(this); }

ResumeCycleStats HorseResumeEngine::cycle_stats() const {
  util::LockGuard guard(cycle_stats_lock_);
  return cycle_stats_;
}

ResumeDegradationStats HorseResumeEngine::degradation_stats() const noexcept {
  ResumeDegradationStats out;
  out.fallback_merges = fallback_merges_.load(std::memory_order_acquire);
  out.poisoned_index_fallbacks =
      poisoned_index_fallbacks_.load(std::memory_order_acquire);
  out.merge_error_fallbacks =
      merge_error_fallbacks_.load(std::memory_order_acquire);
  out.in_place_repairs = in_place_repairs_.load(std::memory_order_acquire);
  out.in_place_rebuilds = in_place_rebuilds_.load(std::memory_order_acquire);
  return out;
}

util::Status HorseResumeEngine::pause_locked(vmm::Sandbox& sandbox) {
  // Vanilla park first: dequeue vCPUs, build the credit-sorted merge_vcpus.
  HORSE_RETURN_IF_ERROR(ResumeEngine::pause_locked(sandbox));
  if (!sandbox.config().ull) {
    return util::Status::ok();
  }

  // §4.1.3: the target ull_runqueue is chosen when pausing, balancing by
  // the number of paused sandboxes per reserved queue.
  const sched::CpuId cpu = ull_->assign(sandbox);
  for (const auto& vcpu : sandbox.vcpus()) {
    vcpu->last_cpu = cpu;
  }

  if (features_.use_coalescing) {
    // §4.2.2: precompute the coalescing factors from the vCPU count.
    sandbox.coalesce() = coalescer_.precompute(sandbox.num_vcpus());
  }
  if (features_.use_p2sm) {
    return ull_->track(sandbox);
  }
  return util::Status::ok();
}

util::Status HorseResumeEngine::hotplug_vcpu_locked(vmm::Sandbox& sandbox) {
  if (!sandbox.config().ull || !features_.use_p2sm) {
    HORSE_RETURN_IF_ERROR(ResumeEngine::hotplug_vcpu_locked(sandbox));
  } else {
    P2smIndex* index = ull_->index_of(sandbox);
    const auto assignment = ull_->assignment(sandbox);
    if (index == nullptr || !assignment) {
      return {util::StatusCode::kFailedPrecondition,
              "hotplug: sandbox not tracked by the ull manager"};
    }
    auto vcpu = sandbox.add_vcpu();
    if (!vcpu) {
      return vcpu.status();
    }
    sched::RunQueue& queue = topology_.queue(*assignment);
    (*vcpu)->last_cpu = *assignment;
    util::LockGuard guard(queue.lock());
    if (!index->fresh(queue) || index->poisoned()) {
      index->rebuild(sandbox.merge_vcpus(), queue);
    }
    // §4.1.1 incremental insert: position search in A plus a run update.
    // On failure, roll the added vCPU back out so the sandbox and the
    // index stay consistent (the vCPU was never linked into merge_vcpus).
    if (util::Status status =
            index->insert_into_a(sandbox.merge_vcpus(), **vcpu, queue);
        !status.is_ok()) {
      if (util::Status rollback = sandbox.remove_last_vcpu();
          !rollback.is_ok()) {
        return {util::StatusCode::kInternal,
                "hotplug: insert failed (" + status.to_report() +
                    ") and rollback failed (" + rollback.to_report() + ")"};
      }
      return status;
    }
  }
  if (features_.use_coalescing && sandbox.config().ull) {
    sandbox.coalesce() = coalescer_.precompute(sandbox.num_vcpus());
  }
  return util::Status::ok();
}

util::Status HorseResumeEngine::unplug_vcpu_locked(vmm::Sandbox& sandbox) {
  if (!sandbox.config().ull || !features_.use_p2sm) {
    HORSE_RETURN_IF_ERROR(ResumeEngine::unplug_vcpu_locked(sandbox));
  } else {
    if (sandbox.state() != vmm::SandboxState::kPaused) {
      return {util::StatusCode::kFailedPrecondition,
              "unplug: sandbox must be paused"};
    }
    if (sandbox.num_vcpus() <= 1) {
      return {util::StatusCode::kFailedPrecondition,
              "unplug: at least one vCPU must remain"};
    }
    P2smIndex* index = ull_->index_of(sandbox);
    const auto assignment = ull_->assignment(sandbox);
    if (index == nullptr || !assignment) {
      return {util::StatusCode::kFailedPrecondition,
              "unplug: sandbox not tracked by the ull manager"};
    }
    sched::Vcpu& victim = sandbox.vcpu(sandbox.num_vcpus() - 1);
    {
      // §4.1.1 incremental delete: O(m) run walk, unlinks from A. Under
      // the queue lock, like every other write to a tracked index.
      util::LockGuard guard(topology_.queue(*assignment).lock());
      HORSE_RETURN_IF_ERROR(
          index->remove_from_a(sandbox.merge_vcpus(), victim));
    }
    HORSE_RETURN_IF_ERROR(sandbox.remove_last_vcpu());
  }
  if (features_.use_coalescing && sandbox.config().ull) {
    sandbox.coalesce() = coalescer_.precompute(sandbox.num_vcpus());
  }
  return util::Status::ok();
}

void HorseResumeEngine::resume_fallback_merge(
    vmm::Sandbox& sandbox, sched::CpuId cpu, vmm::ResumeBreakdown& breakdown) {
  // Vanilla step ④ onto the assigned queue: a per-vCPU sorted walk instead
  // of the O(1) splice. Used by the coal-only ablation AND as the
  // degradation rung when the 𝒫²𝒮ℳ index cannot be trusted — the queue
  // stays sorted and the single-queue placement keeps the coalesced
  // step-⑤ update exact in both cases.
  vmm::StageTimer watch(cycle_timing_);
  sched::RunQueue& queue = topology_.queue(cpu);
  if (config_.branchless_walk) {
    // One lock hold, one monotone branch-free scan over the whole
    // pre-sorted merge list (RunQueue::merge_sorted is element-equivalent
    // to the per-vCPU loop below and publishes a single journal batch).
    util::LockGuard guard(queue.lock());
    queue.merge_sorted(sandbox.merge_vcpus());
  } else {
    // Scalar baseline arm: n lock round-trips, n O(|queue|) walks.
    while (!sandbox.merge_vcpus().empty()) {
      sched::Vcpu& vcpu = sandbox.merge_vcpus().pop_front();
      util::LockGuard guard(queue.lock());
      queue.insert_sorted(vcpu);
    }
  }
  breakdown.merge += watch.elapsed() +
                     static_cast<util::Nanos>(sandbox.num_vcpus()) *
                         profile_.resume_per_vcpu_tax;
}

void HorseResumeEngine::freshen_in_place(P2smIndex& index,
                                         sched::VcpuList& merge_vcpus,
                                         sched::RunQueue& queue) {
  // Every resume or pause on a shared reserved queue bumps its version, so
  // a paused neighbour's index is usually a few journal entries behind.
  // Replaying them costs O(runs + gap); a rebuild costs O(|A| + |B|) and
  // wins once the gap reaches that size (E17). Both inputs are already in
  // hand, so the choice needs no knob and no calibration.
  const std::uint64_t gap = index.version_gap(queue);
  const bool replay = index.built() &&
                      gap <= sched::RunQueue::kJournalCapacity &&
                      gap < merge_vcpus.size() + queue.size();
  if (replay && index.repair(merge_vcpus, queue).is_ok()) {
    in_place_repairs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Invalidated index, long gap, or a declined repair (journal gap,
  // contradictory entry, poisoning): the rebuild cures all of them.
  index.rebuild(merge_vcpus, queue);
  in_place_rebuilds_.fetch_add(1, std::memory_order_relaxed);
}

util::Status HorseResumeEngine::resume(vmm::Sandbox& sandbox,
                                       vmm::ResumeBreakdown* breakdown) {
  if (!sandbox.config().ull) {
    return ResumeEngine::resume(sandbox, breakdown);
  }

  vmm::ResumeBreakdown local;
  vmm::ResumeBreakdown& bd = breakdown != nullptr ? *breakdown : local;
  bd = {};

  // Per-stage cycle boundaries: the prologue's own stage timer supplies
  // c0 and c1, so the fast path adds three fenced rdtsc reads; off when
  // the baseline arm disables cycle_timing or the target has no counter.
  const bool cycle_accounting = cycle_timing_ && util::CycleClock::available();
  vmm::PrologueStamps stamps;
  HORSE_RETURN_IF_ERROR(run_prologue(sandbox, bd, &stamps));

  // The sandbox carries its queue slot and 𝒫²𝒮ℳ node, so the lookup is
  // a lock-free read. It pins the queue's reclamation epoch while the
  // index is in use: release() is the only path that retires a node, so
  // a destroy racing this resume cannot have the index freed under step
  // ④ until the guard unpins.
  std::optional<util::EpochReclaimer::ReadGuard> epoch_pin;
  const auto looked = ull_->lookup(sandbox, &epoch_pin);
  if (!looked) {
    resume_lock_.unlock();
    return looked.status();
  }
  const sched::CpuId cpu = (*looked).cpu;
  sched::RunQueue& queue = topology_.queue(cpu);
  const std::uint32_t n = sandbox.num_vcpus();
  const std::uint64_t c2 = cycle_accounting ? util::CycleClock::now() : 0;

  // --- step ④: one 𝒫²𝒮ℳ merge, degrading to the vanilla sorted walk ------
  bool fast_path_done = false;
  if (features_.use_p2sm) {
    vmm::StageTimer watch(cycle_timing_);
    P2smIndex* index = (*looked).index;
    if (index == nullptr) {
      resume_lock_.unlock();
      return {util::StatusCode::kFailedPrecondition,
              "horse: sandbox not tracked (was pause() skipped?)"};
    }

    // Freshen, merge and untrack under ONE queue-lock hold, so no other
    // splice or pause can stale the index in between; release it before a
    // degraded walk, which takes the lock itself.
    {
      util::LockGuard guard(queue.lock());
      if (HORSE_FAULT_POINT("horse.resume.stale_index")) {
        // Injected foreign mutation: the index genuinely no longer
        // matches the queue, exactly as if another scheduler path had
        // touched the ull_runqueue after pause.
        index->invalidate();
      }
      if (!index->poisoned() && !index->fresh(queue)) {
        freshen_in_place(*index, sandbox.merge_vcpus(), queue);
      }
      // Checked after freshening: a rebuild can itself come back poisoned.
      if (index->poisoned()) {
        poisoned_index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      } else {
        util::Status status =
            index->merge(sandbox.merge_vcpus(), queue, splicer_);
        if (status.is_ok()) {
          fast_path_done = true;
          ull_->untrack_locked(sandbox);
        } else {
          // merge() refuses without mutating A or B, so the degraded walk
          // below still sees the full merge_vcpus list.
          merge_error_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }

    if (fast_path_done) {
      // Per-vCPU byte writes so the scheduler-facing state is consistent.
      // (In the kernel patch the equivalent bits live in the vCPU's
      // already-touched cache lines; ~2 ns each here, bounded by 36 vCPUs.)
      for (const auto& vcpu : sandbox.vcpus()) {
        vcpu->state = sched::VcpuState::kRunnable;
        vcpu->last_cpu = cpu;
      }
      bd.merge = watch.elapsed() + profile_.resume_per_vcpu_tax;
    } else {
      // Degradation rung: the index is poisoned or merge() refused, but
      // the resume must still succeed — fall back to the vanilla sorted
      // walk below, which is correct at any index state. The next pause
      // rebuilds the index, so nothing is left to repair.
      fallback_merges_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!fast_path_done) {
    resume_fallback_merge(sandbox, cpu, bd);
    ull_->untrack(sandbox);
  }

  // Step ④ done: the index pointer is dead from here on, so drop the pin
  // before step ⑤ — a long load update must not hold the epoch back.
  epoch_pin.reset();
  const std::uint64_t c3 = cycle_accounting ? util::CycleClock::now() : 0;

  // --- step ⑤: load update, coalesced or iterative ------------------------
  {
    vmm::StageTimer watch(cycle_timing_);
    if (features_.use_coalescing) {
      const vmm::CoalescePrecompute& pre = sandbox.coalesce();
      if (pre.valid) {
        queue.apply_precomputed_load(pre.alpha_n, pre.beta_geo_sum);
      } else {
        queue.update_load_coalesced(n);
      }
    } else {
      // ppsm-only ablation: n iterative lock round-trips, as vanilla.
      for (std::uint32_t i = 0; i < n; ++i) {
        queue.update_load_enqueue();
      }
    }
    bd.load_update = watch.elapsed();
  }

  // Step ④ untracked the sandbox BEFORE the epilogue drops resume_lock_,
  // so a sandbox seen as kRunning by other control-plane paths is never
  // still tracked.
  sandbox.coalesce().valid = false;

  run_epilogue(sandbox, bd);
  const std::uint64_t c4 = cycle_accounting ? util::CycleClock::now() : 0;

  if (cycle_accounting) {
    // Off the timed path (after c4); the spinlock is a leaf lock held for
    // a few adds and one allocation-free histogram record.
    util::LockGuard guard(cycle_stats_lock_);
    ++cycle_stats_.resumes;
    cycle_stats_.parse_cycles += stamps.parsed - stamps.start;
    cycle_stats_.lock_cycles += stamps.locked - stamps.parsed;
    cycle_stats_.sanity_cycles += stamps.checked - stamps.locked;
    cycle_stats_.prologue_cycles += stamps.checked - stamps.start;
    cycle_stats_.lookup_cycles += c2 - stamps.checked;
    cycle_stats_.splice_cycles += c3 - c2;
    cycle_stats_.publish_cycles += c4 - c3;
    cycle_stats_.total_cycles.record(
        static_cast<util::Nanos>(c4 - stamps.start));
  }
  return util::Status::ok();
}

}  // namespace horse::core
