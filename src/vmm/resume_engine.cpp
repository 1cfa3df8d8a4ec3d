#include "vmm/resume_engine.hpp"

#include <cstdio>
#include <cstring>

#include "util/fault_injection.hpp"

namespace horse::vmm {

namespace {

/// Credit-sorted insertion into a plain vCPU list (the merge_vcpus list is
/// maintained sorted so HORSE can splice it in one shot; vanilla benefits
/// too: resume pops in already-sorted order).
void insert_sorted_into(sched::VcpuList& list, sched::Vcpu& vcpu) {
  auto it = list.begin();
  const auto end = list.end();
  while (it != end && it->credit <= vcpu.credit) {
    ++it;
  }
  list.insert(it, vcpu);
}

}  // namespace

ResumeEngine::ResumeEngine(sched::CpuTopology& topology, VmmProfile profile)
    : topology_(topology), profile_(std::move(profile)) {
  if (profile_.kind == VmmKind::kXen) {
    xenstore_ = std::make_shared<XenStore>();
  }
  // Pay the one-time TSC↔wall-clock calibration spin here so the first
  // timed resume reads a settled ratio instead of stalling ~1 ms.
  util::CycleClock::calibrate();
}

void ResumeEngine::record_state(const Sandbox& sandbox,
                                std::string_view state) {
  if (xenstore_ == nullptr) {
    return;
  }
  const std::string base = XenStore::domain_path(sandbox.id());
  (void)xenstore_->write(base + "/state", std::string(state));
  (void)xenstore_->write(base + "/vcpus",
                         std::to_string(sandbox.num_vcpus()));
}

bool ResumeEngine::control_plane_agrees(const Sandbox& sandbox,
                                        std::string_view state) const {
  if (xenstore_ == nullptr) {
    return true;
  }
  const auto stored =
      xenstore_->read(XenStore::domain_path(sandbox.id()) + "/state");
  return stored.has_value() && *stored == state;
}

util::Status ResumeEngine::start(Sandbox& sandbox) {
  util::LockGuard guard(resume_lock_);
  if (sandbox.state() != SandboxState::kCreated) {
    return {util::StatusCode::kFailedPrecondition,
            "start: sandbox not in created state"};
  }
  for (const auto& vcpu : sandbox.vcpus()) {
    const sched::CpuId cpu = select_cpu(*vcpu);
    sched::RunQueue& queue = topology_.queue(cpu);
    {
      util::LockGuard guard(queue.lock());
      queue.insert_sorted(*vcpu);
    }
    queue.update_load_enqueue();
  }
  sandbox.set_state(SandboxState::kRunning);
  record_state(sandbox, "running");
  return util::Status::ok();
}

util::Status ResumeEngine::pause(Sandbox& sandbox) {
  util::LockGuard guard(resume_lock_);
  return pause_locked(sandbox);
}

util::Status ResumeEngine::pause_locked(Sandbox& sandbox) {
  if (sandbox.state() != SandboxState::kRunning) {
    return {util::StatusCode::kFailedPrecondition,
            "pause: sandbox not running"};
  }
  for (const auto& vcpu : sandbox.vcpus()) {
    {
      // Test is_linked() under the queue lock: a neighbour's unlink on the
      // same queue rewrites this hook's links while holding it.
      sched::RunQueue& queue = topology_.queue(vcpu->last_cpu);
      util::LockGuard guard(queue.lock());
      if (vcpu->hook.is_linked()) {
        queue.remove(*vcpu);
      }
    }
    vcpu->state = sched::VcpuState::kPaused;
    insert_sorted_into(sandbox.merge_vcpus(), *vcpu);
  }
  sandbox.set_state(SandboxState::kPaused);
  record_state(sandbox, "paused");
  return util::Status::ok();
}

bool ResumeEngine::parse_resume_command(const Sandbox& sandbox) const {
  // Step ① does real (small) work: round-trip the command through text,
  // the way a VMM parses its API request.
  char command[64];
  std::snprintf(command, sizeof command, "resume id=%u vcpus=%u",
                sandbox.id(), sandbox.num_vcpus());
  unsigned parsed_id = 0;
  unsigned parsed_vcpus = 0;
  if (std::sscanf(command, "resume id=%u vcpus=%u", &parsed_id,
                  &parsed_vcpus) != 2) {
    return false;
  }
  return parsed_id == sandbox.id() && parsed_vcpus == sandbox.num_vcpus();
}

util::Status ResumeEngine::run_prologue(Sandbox& sandbox,
                                        ResumeBreakdown& breakdown,
                                        PrologueStamps* stamps) {
  StageTimer watch(cycle_timing_);
  const std::uint64_t start = watch.mark();

  // ① parse. The fault site models a malformed resume request: fails
  // before the global lock is taken, sandbox state untouched.
  if (HORSE_FAULT_POINT("resume.parse.fault") ||
      !parse_resume_command(sandbox)) {
    return {util::StatusCode::kInvalidArgument, "resume: bad command"};
  }
  breakdown.parse = watch.lap() + profile_.resume_control_plane;
  const std::uint64_t parsed = watch.mark();

  // ② global lock
  resume_lock_.lock();
  breakdown.lock = watch.lap();
  const std::uint64_t locked = watch.mark();

  // ③ sanity checks — includes a real control-plane read on Xen flavours.
  // The fault site models a transient control-plane disagreement (stale
  // XenStore read, interrupted ioctl): the lock is released and the
  // sandbox stays paused, so the caller may retry or fall down the
  // platform's start ladder.
  if (HORSE_FAULT_POINT("resume.sanity.fault")) {
    resume_lock_.unlock();
    return {util::StatusCode::kInternal,
            "resume: injected sanity-check failure (control plane)"};
  }
  if (sandbox.state() != SandboxState::kPaused ||
      sandbox.merge_vcpus().size() != sandbox.num_vcpus() ||
      !control_plane_agrees(sandbox, "paused")) {
    resume_lock_.unlock();
    return {util::StatusCode::kFailedPrecondition,
            "resume: sandbox not paused"};
  }
  breakdown.sanity = watch.lap();
  if (stamps != nullptr) {
    *stamps = {start, parsed, locked, watch.mark()};
  }
  return util::Status::ok();
}

void ResumeEngine::run_epilogue(Sandbox& sandbox, ResumeBreakdown& breakdown) {
  StageTimer watch(cycle_timing_);
  sandbox.set_state(SandboxState::kRunning);
  record_state(sandbox, "running");
  resume_lock_.unlock();
  breakdown.finalize = watch.elapsed();
}

util::Status ResumeEngine::resume(Sandbox& sandbox,
                                  ResumeBreakdown* breakdown) {
  ResumeBreakdown local;
  ResumeBreakdown& bd = breakdown != nullptr ? *breakdown : local;
  bd = {};

  HORSE_RETURN_IF_ERROR(run_prologue(sandbox, bd));

  // ④+⑤: per-vCPU sorted merge and load update, interleaved exactly as in
  // the vanilla path but timed separately (as the paper's Figure 2 does).
  StageTimer watch(cycle_timing_);
  while (!sandbox.merge_vcpus().empty()) {
    sched::Vcpu& vcpu = sandbox.merge_vcpus().pop_front();

    watch.restart();
    const sched::CpuId cpu = select_cpu(vcpu);
    sched::RunQueue& queue = topology_.queue(cpu);
    {
      util::LockGuard guard(queue.lock());
      queue.insert_sorted(vcpu);
    }
    bd.merge += watch.elapsed();

    watch.restart();
    queue.update_load_enqueue();
    bd.load_update += watch.elapsed();
  }
  bd.merge += static_cast<util::Nanos>(sandbox.num_vcpus()) *
              profile_.resume_per_vcpu_tax;

  run_epilogue(sandbox, bd);
  return util::Status::ok();
}

util::Status ResumeEngine::destroy(Sandbox& sandbox) {
  util::LockGuard guard(resume_lock_);
  if (sandbox.state() == SandboxState::kDestroyed) {
    return {util::StatusCode::kFailedPrecondition, "destroy: already destroyed"};
  }
  for (const auto& vcpu : sandbox.vcpus()) {
    if (vcpu->state == sched::VcpuState::kPaused) {
      // Parked on the sandbox's own merge list: no other thread links it.
      if (vcpu->hook.is_linked()) {
        sandbox.merge_vcpus().erase(*vcpu);
      }
    } else {
      // On a shared run queue: test is_linked() under its lock, as pause
      // does.
      sched::RunQueue& queue = topology_.queue(vcpu->last_cpu);
      util::LockGuard guard(queue.lock());
      if (vcpu->hook.is_linked()) {
        queue.remove(*vcpu);
      }
    }
    vcpu->state = sched::VcpuState::kOffline;
  }
  sandbox.set_state(SandboxState::kDestroyed);
  if (xenstore_ != nullptr) {
    (void)xenstore_->remove(XenStore::domain_path(sandbox.id()));
  }
  return util::Status::ok();
}

util::Status ResumeEngine::hotplug_vcpu(Sandbox& sandbox) {
  util::LockGuard guard(resume_lock_);
  return hotplug_vcpu_locked(sandbox);
}

util::Status ResumeEngine::unplug_vcpu(Sandbox& sandbox) {
  util::LockGuard guard(resume_lock_);
  return unplug_vcpu_locked(sandbox);
}

util::Status ResumeEngine::hotplug_vcpu_locked(Sandbox& sandbox) {
  auto vcpu = sandbox.add_vcpu();
  if (!vcpu) {
    return vcpu.status();
  }
  insert_sorted_into(sandbox.merge_vcpus(), **vcpu);
  record_state(sandbox, "paused");  // refresh /vcpus in the control plane
  return util::Status::ok();
}

util::Status ResumeEngine::unplug_vcpu_locked(Sandbox& sandbox) {
  if (sandbox.state() != SandboxState::kPaused) {
    return {util::StatusCode::kFailedPrecondition,
            "unplug: sandbox must be paused"};
  }
  if (sandbox.num_vcpus() <= 1) {
    return {util::StatusCode::kFailedPrecondition,
            "unplug: at least one vCPU must remain"};
  }
  sched::Vcpu& victim = sandbox.vcpu(sandbox.num_vcpus() - 1);
  if (victim.hook.is_linked()) {
    sandbox.merge_vcpus().erase(victim);
  }
  HORSE_RETURN_IF_ERROR(sandbox.remove_last_vcpu());
  record_state(sandbox, "paused");
  return util::Status::ok();
}

sched::CpuId ResumeEngine::select_cpu(const sched::Vcpu& /*vcpu*/) {
  return topology_.least_loaded_general();
}

}  // namespace horse::vmm
