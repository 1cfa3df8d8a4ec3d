#include "faas/platform.hpp"

#include <algorithm>
#include <utility>

#include "util/backoff.hpp"
#include "util/dcheck.hpp"

namespace horse::faas {

namespace {
using ShardLock = metrics::MeteredLock<std::mutex>;
}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      topology_(config_.num_cpus),
      retry_budget_(config_.admission.retry_budget) {
  ull_manager_ =
      std::make_unique<core::UllRunQueueManager>(topology_, config_.horse);
  vanilla_ = std::make_unique<vmm::ResumeEngine>(topology_, config_.profile);
  // One HORSE engine per reserved queue: resumes targeting different
  // ull_runqueues serialise on different step-② locks.
  for (const sched::CpuId cpu : ull_manager_->ull_cpus()) {
    horse_engines_.push_back(std::make_unique<core::HorseResumeEngine>(
        topology_, config_.profile, *ull_manager_, cpu, config_.horse));
  }
  if (config_.profile.kind == vmm::VmmKind::kXen) {
    // One control-plane store for all engines: a pause recorded through
    // engine A must satisfy a resume sanity check through engine B. The
    // store locks itself.
    auto store = std::make_shared<vmm::XenStore>();
    vanilla_->use_shared_xenstore(store);
    for (auto& engine : horse_engines_) {
      engine->use_shared_xenstore(store);
    }
  }
  const std::size_t num_shards =
      config_.control_shards != 0
          ? config_.control_shards
          : std::max<std::size_t>(8, config_.num_cpus);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    // Disjoint seed windows per shard keep the streams independent while
    // the whole platform stays reproducible from config.seed.
    shards_.push_back(std::make_unique<ControlShard>(
        config_, config_.seed + 16 * static_cast<std::uint64_t>(i)));
  }
}

void Platform::destroy_pooled(ControlShard& shard, vmm::Sandbox& sandbox) {
  // Proper teardown order for a pool-owned sandbox: release its fast-path
  // node first (the index references the sandbox's merge_vcpus), then
  // dequeue/offline the vCPUs, then forget its health history. destroy()
  // is engine-agnostic, so the vanilla engine serves every sandbox.
  ull_manager_->release(sandbox);
  (void)vanilla_->destroy(sandbox);
  shard.resume_failures.erase(sandbox.id());
}

void Platform::advance_time(util::Nanos delta) {
  const util::Nanos now =
      logical_now_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  const std::size_t num_functions = registry_.size();
  // Shards are walked independently — no global pause of the control
  // plane; invocations on other shards proceed while this one evicts.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ControlShard& shard = *shards_[s];
    ShardLock lock(shard.mutex, shard.meter);
    if (config_.adaptive_keep_alive) {
      // Functions owned by shard s are exactly {s, s+N, s+2N, ...}.
      for (FunctionId id = static_cast<FunctionId>(s); id < num_functions;
           id += static_cast<FunctionId>(shards_.size())) {
        const KeepAliveDecision decision = shard.keep_alive.decide(id);
        shard.pool.set_keep_alive_override(id, decision.keep_alive);
      }
    }
    for (auto& sandbox : shard.pool.evict_expired(now)) {
      destroy_pooled(shard, *sandbox);
      // unique_ptr destruction frees the sandbox after dequeueing.
    }
  }
}

std::unique_ptr<vmm::Sandbox> Platform::make_sandbox(const FunctionSpec& spec) {
  return std::make_unique<vmm::Sandbox>(
      next_sandbox_id_.fetch_add(1, std::memory_order_relaxed), spec.sandbox);
}

util::Status Platform::pause_and_pool(ControlShard& shard,
                                      std::size_t shard_index,
                                      FunctionId function,
                                      std::unique_ptr<vmm::Sandbox> sandbox) {
  // uLL sandboxes pause through a HORSE engine so they get their queue
  // assignment, coalescing precompute, and 𝒫²𝒮ℳ index and the next kHorse
  // resume is fast-path-ready; plain sandboxes take the vanilla pause.
  std::unique_ptr<vmm::Sandbox> rejected;
  util::Status status =
      lifecycle_engine(shard_index, *sandbox).pause(*sandbox);
  if (status.is_ok()) {
    status =
        shard.pool.put(function, std::move(sandbox), logical_now(), &rejected);
  } else {
    rejected = std::move(sandbox);
  }
  if (!status.is_ok() && rejected != nullptr) {
    // The engine could not park it, or the pool refused it (per-function
    // cap): tear the sandbox down fully instead of leaking it — its vCPUs
    // may sit on merge_vcpus and the ull manager may hold an index into
    // them. Either way the caller sees an eviction, counted here.
    destroy_pooled(shard, *rejected);
    ++shard.counters.pool_overflow_destroyed;
  }
  return status;
}

util::Status Platform::provision(FunctionId function, std::size_t count) {
  const std::size_t shard_index = shard_of(function);
  ControlShard& s = *shards_[shard_index];
  ShardLock lock(s.mutex, s.meter);
  const auto spec = registry_.find(function);
  if (!spec) {
    return spec.status();
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto sandbox = make_sandbox(**spec);
    HORSE_RETURN_IF_ERROR(
        lifecycle_engine(shard_index, *sandbox).start(*sandbox));
    HORSE_RETURN_IF_ERROR(
        pause_and_pool(s, shard_index, function, std::move(sandbox)));
  }
  s.pool.set_provisioned_floor(function, count);
  return util::Status::ok();
}

util::Status Platform::ensure_snapshot(FunctionId function) {
  const std::size_t shard_index = shard_of(function);
  ControlShard& s = *shards_[shard_index];
  ShardLock lock(s.mutex, s.meter);
  return ensure_snapshot_on(s, shard_index, function);
}

util::Status Platform::ensure_snapshot_on(ControlShard& shard,
                                          std::size_t shard_index,
                                          FunctionId function) {
  // Ensure-once is shard-local: the function's snapshot lives only in its
  // owning shard's store, and the shard mutex (already held) makes the
  // check-then-create atomic.
  if (shard.snapshot_store.contains(function)) {
    return util::Status::ok();
  }
  const auto spec = registry_.find(function);
  if (!spec) {
    return spec.status();
  }
  auto sandbox = make_sandbox(**spec);
  vmm::ResumeEngine& engine = lifecycle_engine(shard_index, *sandbox);
  HORSE_RETURN_IF_ERROR(engine.start(*sandbox));
  HORSE_RETURN_IF_ERROR(engine.pause(*sandbox));
  auto snapshot = shard.snapshots.take(*sandbox);
  if (!snapshot) {
    return snapshot.status();
  }
  shard.snapshot_store.emplace(function, std::move(*snapshot));
  ull_manager_->release(*sandbox);
  return vanilla_->destroy(*sandbox);
}

void Platform::clear_warm_pools() {
  // Shard-by-shard, like advance_time: no global pause, each pool is
  // flushed under its own mutex and every evicted sandbox gets the full
  // engine teardown (release + dequeue).
  for (auto& shard_ptr : shards_) {
    ControlShard& shard = *shard_ptr;
    ShardLock lock(shard.mutex, shard.meter);
    for (auto& sandbox : shard.pool.evict_all()) {
      destroy_pooled(shard, *sandbox);
    }
  }
}

util::Status Platform::rehydrate(FunctionId function, std::size_t target) {
  const std::size_t shard_index = shard_of(function);
  ControlShard& s = *shards_[shard_index];
  ShardLock lock(s.mutex, s.meter);
  const auto spec = registry_.find(function);
  if (!spec) {
    return spec.status();
  }
  if (s.pool.available(function) >= target) {
    return util::Status::ok();  // warm state intact (stall, not crash)
  }
  HORSE_RETURN_IF_ERROR(ensure_snapshot_on(s, shard_index, function));
  while (s.pool.available(function) < target) {
    // The kRestore recipe (see try_start_on), ending in the pool instead
    // of an invocation: restore from the cached snapshot, start through
    // the right engine, pause back into the warm pool.
    auto restored = s.snapshots.restore(
        s.snapshot_store.at(function),
        next_sandbox_id_.fetch_add(1, std::memory_order_relaxed));
    if (!restored) {
      s.snapshot_store.erase(function);
      return restored.status();
    }
    std::unique_ptr<vmm::Sandbox> sandbox = std::move(restored->sandbox);
    HORSE_RETURN_IF_ERROR(
        lifecycle_engine(shard_index, *sandbox).start(*sandbox));
    HORSE_RETURN_IF_ERROR(
        pause_and_pool(s, shard_index, function, std::move(sandbox)));
    s.rehydrated_sandboxes.fetch_add(1, std::memory_order_relaxed);
  }
  return util::Status::ok();
}

std::vector<FunctionId> Platform::recently_invoked(std::size_t k) const {
  // Rank every registered function by its keep-alive last-arrival time
  // (recorded on every invocation regardless of adaptive_keep_alive).
  // Ties — common when logical time never advances — break toward higher
  // FunctionId, which is arbitrary but deterministic.
  std::vector<std::pair<util::Nanos, FunctionId>> ranked;
  const std::size_t num_functions = registry_.size();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ControlShard& shard = *shards_[s];
    ShardLock lock(shard.mutex, shard.meter);
    for (FunctionId id = static_cast<FunctionId>(s); id < num_functions;
         id += static_cast<FunctionId>(shards_.size())) {
      const util::Nanos last = shard.keep_alive.last_arrival(id);
      if (last >= 0) {
        ranked.emplace_back(last, id);
      }
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a > b; });
  if (ranked.size() > k) {
    ranked.resize(k);
  }
  std::vector<FunctionId> out;
  out.reserve(ranked.size());
  for (const auto& [last, id] : ranked) {
    out.push_back(id);
  }
  return out;
}

util::Expected<InvocationRecord> Platform::invoke(FunctionId function,
                                                  workloads::Request request,
                                                  StartMode mode) {
  InvokeControls controls;  // no deadline, every admission gate passes
  return invoke(function, std::move(request), mode, controls);
}

util::Expected<InvocationRecord> Platform::invoke(FunctionId function,
                                                  workloads::Request request,
                                                  StartMode mode,
                                                  InvokeControls& controls) {
  // A plain invocation is the one-stage segment of its function: no edges
  // and no chain, so the caller's hop cursor is never touched.
  const Segment segment{.stages = &function};
  return admit_segment(segment, request, mode, controls);
}

namespace {

/// Fold one executed segment's record into the chain aggregate: the first
/// segment contributes the chain's start decomposition wholesale, later
/// segments add their own init/exec on top, and the response always
/// tracks the most recently completed stage.
void fold_segment_record(InvocationRecord& total, const InvocationRecord& part,
                         bool first) {
  if (first) {
    total = part;
    return;
  }
  total.fallbacks += part.fallbacks;
  total.retry_backoff += part.retry_backoff;
  total.init_time += part.init_time;
  total.init_modelled += part.init_modelled;
  total.exec_time += part.exec_time;
  total.response = part.response;
  total.repooled = total.repooled && part.repooled;
}

}  // namespace

util::Expected<ChainRecord> Platform::invoke_chain(WorkflowId workflow,
                                                   workloads::Request request,
                                                   StartMode mode) {
  InvokeControls controls;  // no deadline, hop 0, every admission gate passes
  return invoke_chain(workflow, std::move(request), mode, controls);
}

util::Expected<ChainRecord> Platform::invoke_chain(WorkflowId workflow,
                                                   workloads::Request request,
                                                   StartMode mode,
                                                   InvokeControls& controls) {
  controls.reject = SubmissionReject::kNone;
  controls.hops_completed = 0;
  const auto workflow_lookup = registry_.find_workflow(workflow);
  if (!workflow_lookup) {
    return workflow_lookup.status();
  }
  const WorkflowSpec& spec = **workflow_lookup;
  const auto num_stages = static_cast<std::uint32_t>(spec.stages.size());
  if (controls.hop >= num_stages) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "invoke_chain: hop cursor past the last stage"};
  }

  ChainRecord chain;
  chain.first_hop = controls.hop;
  // Plan from the cursor: an orphan-recovery re-dispatch partitions only
  // the REMAINING stages and never revisits completed ones. The plan is a
  // pure function of the registered edge flags, so every re-dispatch of
  // the same chain plans identically.
  const std::vector<ChainSegment> plan = plan_fusion(spec, controls.hop);
  const util::Stopwatch chain_watch;
  Segment segment{.stages = spec.stages.data(),
                  .edges = spec.edges.data(),
                  .num_stages = num_stages,
                  .chain = &chain,
                  .chain_watch = &chain_watch};
  bool first_segment = true;
  // Run stages [controls.hop, end) as one segment; the executor advances
  // the cursor past every stage whose body ran.
  const auto run_to = [&](std::uint32_t end) -> util::Status {
    segment.begin = controls.hop;
    segment.end = end;
    auto part = admit_segment(segment, request, mode, controls);
    if (!part) {
      return part.status();
    }
    fold_segment_record(chain.record, *part, first_segment);
    first_segment = false;
    return util::Status::ok();
  };

  util::Status status;
  for (const ChainSegment& planned : plan) {
    if (!status.is_ok() || chain.gated_early) {
      break;
    }
    // A fused run is one segment. A typed refusal is the chain's outcome;
    // an untyped failure (its start ladder exhausted) demotes the SEGMENT
    // to one-stage segments from the frontier, each through the full
    // admission machinery — the chain keeps going.
    if (planned.fused) {
      status = run_to(planned.end);
      if (!status.is_ok() && controls.reject == SubmissionReject::kNone) {
        status = util::Status::ok();
      }
    }
    while (status.is_ok() && controls.hop < planned.end &&
           !chain.gated_early) {
      status = run_to(controls.hop + 1);
    }
  }

  {
    // Chain-shaped bookkeeping lands on the shard of the stage the chain
    // ENTERED at, win or lose, so chains_invoked counts each routed chain
    // exactly once.
    ControlShard& entry = shard(spec.stages[chain.first_hop]);
    ShardLock lock(entry.mutex, entry.meter);
    ++entry.counters.chains_invoked;
    entry.counters.chain_stages_executed += chain.stages_executed;
    entry.counters.chain_fallback_stages += chain.per_stage_dispatches;
    if (chain.gated_early) {
      ++entry.counters.chains_gated_early;
    }
  }
  if (!status.is_ok()) {
    return status;
  }
  return chain;
}

util::Expected<InvocationRecord> Platform::admit_segment(
    const Segment& segment, workloads::Request& request, StartMode mode,
    InvokeControls& controls) {
  controls.reject = SubmissionReject::kNone;
  const FunctionId entry = segment.stages[segment.begin];
  const std::size_t shard_index = shard_of(entry);
  ControlShard& s = *shards_[shard_index];
  const AdmissionConfig& admission = config_.admission;
  // A chain carries ONE deadline: each of its segments is admitted at the
  // caller's `now` plus the time the chain has measurably consumed.
  const util::Nanos now =
      segment.chain_watch != nullptr
          ? controls.now + segment.chain_watch->elapsed()
          : controls.now;

  // Admission gate 1 — expired deadline: the caller already gave up;
  // running the segment only wastes the shard's serial capacity.
  if (controls.deadline != 0 && now >= controls.deadline) {
    controls.reject = SubmissionReject::kDeadlineExpired;
    s.deadline_rejections.fetch_add(1, std::memory_order_relaxed);
    return util::Status{util::StatusCode::kDeadlineExceeded,
                        "invoke: deadline expired before stage " +
                            std::to_string(segment.begin)};
  }
  // Admission gate 2 — shard occupancy high-water mark, checked BEFORE
  // blocking on the shard mutex: an overloaded shard must refuse fast
  // instead of growing its mutex convoy unboundedly.
  if (admission.shard_high_water != 0 &&
      s.inflight.load(std::memory_order_acquire) >= admission.shard_high_water) {
    controls.reject = SubmissionReject::kShardOverload;
    s.overload_rejections.fetch_add(1, std::memory_order_relaxed);
    return util::Status{util::StatusCode::kResourceExhausted,
                        "invoke: control shard above high-water occupancy"};
  }

  s.inflight.fetch_add(1, std::memory_order_acq_rel);
  InvocationRecord record;
  util::Status status;
  {
    // Same-function invocations serialise here (which is also what keeps a
    // function's workload-implementation state single-threaded); functions
    // on other shards proceed in parallel.
    ShardLock lock(s.mutex, s.meter);

    // Admission gate 3 — the entry function's circuit breaker (breakers
    // live under the shard mutex; a function with no breaker is closed).
    if (admission.breaker_enabled) {
      auto it = s.breakers.find(entry);
      if (it != s.breakers.end() && !it->second.allow(now, s.rng)) {
        ++s.counters.breaker_rejections;
        s.inflight.fetch_sub(1, std::memory_order_acq_rel);
        controls.reject = SubmissionReject::kBreakerOpen;
        return util::Status{util::StatusCode::kUnavailable,
                            "invoke: circuit breaker open"};
      }
    }
    if (admission.retry_budget_enabled) {
      // Every admitted request funds the host's escalation budget.
      retry_budget_.deposit();
    }

    status = run_segment(s, shard_index, segment, request, mode, now,
                         controls, record);
    // A segment books as ONE invocation, by the mode its single start
    // actually completed with: a ladder-demoted kHorse request that
    // finished as a cold start is a cold start in the books. A deadline
    // that runs out mid-segment refuses the rest of a fused run, but its
    // sandbox started and bodies ran: that books as an invocation too,
    // never as failed (the caller still gets the typed refusal).
    if (status.is_ok() ||
        controls.reject == SubmissionReject::kDeadlineExpired) {
      ++s.counters.invocations;
      switch (record.mode) {
        case StartMode::kCold: ++s.counters.cold; break;
        case StartMode::kRestore: ++s.counters.restore; break;
        case StartMode::kWarm: ++s.counters.warm; break;
        case StartMode::kHorse: ++s.counters.horse; break;
      }
      if (record.mode != record.requested) {
        ++s.counters.degraded_invocations;
      }
    } else {
      ++s.counters.failed;
    }
  }
  s.inflight.fetch_sub(1, std::memory_order_acq_rel);
  if (!status.is_ok()) {
    return status;
  }
  return record;
}

util::Status Platform::run_segment(ControlShard& shard, std::size_t shard_index,
                                   const Segment& segment,
                                   workloads::Request& request, StartMode mode,
                                   util::Nanos now, InvokeControls& controls,
                                   InvocationRecord& record) {
  const FunctionId entry = segment.stages[segment.begin];
  const auto spec_lookup = registry_.find(entry);
  if (!spec_lookup) {
    return spec_lookup.status();
  }
  const FunctionSpec& entry_spec = **spec_lookup;
  const AdmissionConfig& admission = config_.admission;

  // One keep-alive arrival, for the ENTRY function only: interior stages
  // of a fused run never take a pool slot, so recording them would
  // inflate their pre-warm ranking without a pooled sandbox ever serving
  // them.
  shard.keep_alive.record_invocation(entry, logical_now());

  // The breaker watches resume outcomes at the warm/horse rungs: a pool
  // miss (kUnavailable) is a capacity signal, not a health signal, and
  // must not trip it — only actual resume failures count.
  const auto breaker_for = [&]() -> CircuitBreaker& {
    return shard.breakers.try_emplace(entry, admission.breaker).first->second;
  };

  // --- start ladder: requested mode first, demoting one rung per failure.
  // A demotion demotes THIS segment only (a fused run still runs fused,
  // just from a colder start); a chain's later segments start at the
  // requested mode again.
  const StartMode requested = mode;
  const DegradationPolicy& ladder = config_.degradation;
  const util::Backoff backoff{
      util::BackoffPolicy{ladder.retry_backoff_base, ladder.retry_backoff_cap}};
  std::unique_ptr<vmm::Sandbox> sandbox;
  std::uint32_t fallbacks = 0;
  util::Nanos backoff_total = 0;
  std::size_t attempt = 0;
  while (true) {
    ++attempt;
    record = {};
    record.requested = requested;
    record.mode = mode;
    record.fallbacks = fallbacks;
    auto started =
        try_start_on(shard, shard_index, entry, entry_spec, mode, record);
    const bool resume_rung =
        mode == StartMode::kWarm || mode == StartMode::kHorse;
    if (started) {
      if (admission.breaker_enabled && resume_rung) {
        breaker_for().on_success(now);
      }
      sandbox = std::move(*started);
      break;
    }
    if (admission.breaker_enabled && resume_rung &&
        started.status().code() != util::StatusCode::kUnavailable) {
      breaker_for().on_failure(now, shard.rng);
    }
    const bool exhausted = !ladder.enabled || attempt >= ladder.max_attempts ||
                           mode == StartMode::kCold;
    if (exhausted) {
      return started.status();
    }
    const StartMode colder = next_colder(mode);
    // Escalating to kRestore/kCold is the expensive half of the ladder —
    // a restore storm is exactly what saturates a host during a spike.
    // The host-wide budget (funded by admitted requests) bounds it in
    // aggregate: exhausted budget turns the escalation into an immediate
    // typed rejection instead of a pile-on.
    if (admission.retry_budget_enabled &&
        (colder == StartMode::kRestore || colder == StartMode::kCold) &&
        !retry_budget_.try_withdraw()) {
      ++shard.counters.budget_denied_escalations;
      controls.reject = SubmissionReject::kRetryBudgetExhausted;
      return util::Status{util::StatusCode::kResourceExhausted,
                          "invoke: retry budget exhausted, escalation denied"};
    }
    // Demote one rung and model a capped full-jitter backoff (recorded,
    // not slept: the logical clock is caller-driven).
    mode = colder;
    ++fallbacks;
    ++shard.counters.rung_fallbacks;
    backoff_total += backoff.delay(attempt, shard.rng);
  }
  record.retry_backoff = backoff_total;
  record.init_modelled += backoff_total;
  record.init_time += backoff_total;

  // --- run the segment's stage bodies back-to-back in the one started
  // sandbox, handing each stage's output to the next via edge plumbing.
  // Interior bodies run under the ENTRY stage's shard mutex (never a
  // nested shard lock), so an interior function may execute here
  // concurrently with its own standalone invocations on its home shard —
  // the fusion-safety rule callers accept by registering a workflow (see
  // DESIGN.md §5.8).
  util::Status stopped;
  for (std::uint32_t hop = segment.begin; hop < segment.end; ++hop) {
    const FunctionSpec* stage_spec = &entry_spec;
    if (hop != segment.begin) {
      // Per-hop slack inside a fused run too: a chain must not keep
      // burning stages after its one deadline has passed. The sandbox is
      // healthy, so it still returns to the pool; the refusal is typed.
      if (controls.deadline != 0 &&
          controls.now + segment.chain_watch->elapsed() >= controls.deadline) {
        controls.reject = SubmissionReject::kDeadlineExpired;
        shard.deadline_rejections.fetch_add(1, std::memory_order_relaxed);
        stopped = util::Status{
            util::StatusCode::kDeadlineExceeded,
            "invoke_chain: deadline expired mid-segment at hop " +
                std::to_string(hop)};
        break;
      }
      // Stage ids are validated at add_workflow, so this is effectively
      // unreachable — but pool the healthy sandbox before surfacing.
      const auto stage_lookup = registry_.find(segment.stages[hop]);
      if (!stage_lookup) {
        stopped = stage_lookup.status();
        break;
      }
      stage_spec = *stage_lookup;
    }
    util::Stopwatch exec_watch;
    record.response = stage_spec->implementation->invoke(request);
    record.exec_time += exec_watch.elapsed();
    if (segment.chain == nullptr) {
      continue;  // a plain invoke() has no cursor to advance
    }
    // Advance the chain's hop cursor past the completed stage: plumb its
    // response into the next stage's request, tell the caller's cursor
    // callback, and stop on a kGated edge.
    ChainRecord& chain = *segment.chain;
    ++chain.stages_executed;
    const bool keep_going =
        hop + 1 == segment.num_stages ||
        apply_edge(segment.edges[hop], record.response, request);
    controls.hop = hop + 1;
    controls.hops_completed = controls.hop - chain.first_hop;
    if (controls.on_hop) {
      controls.on_hop(controls.hop,
                      segment.stages[std::min(controls.hop,
                                              segment.num_stages - 1)]);
    }
    if (!keep_going) {
      chain.gated_early = true;
      break;
    }
  }

  // One re-park for the whole segment, under the entry function where the
  // one pool take came from. Bodies have run, so a re-park error is an
  // eviction (pause_and_pool tore the sandbox down and counted it), never
  // a failed call; the record says which.
  record.repooled =
      pause_and_pool(shard, shard_index, entry, std::move(sandbox)).is_ok();
  if (!stopped.is_ok()) {
    return stopped;
  }
  if (segment.chain != nullptr) {
    if (segment.end - segment.begin > 1) {
      ++segment.chain->fused_segments;
      ++shard.counters.fused_segments;
    } else {
      ++segment.chain->per_stage_dispatches;
    }
  }
  return util::Status::ok();
}

void Platform::handle_resume_failure(ControlShard& shard, FunctionId function,
                                     std::unique_ptr<vmm::Sandbox> sandbox) {
  const sched::SandboxId id = sandbox->id();
  const std::size_t strikes = ++shard.resume_failures[id];
  if (strikes >= config_.degradation.quarantine_threshold) {
    // Repeated failures: this sandbox is suspected broken (wedged control
    // plane, corrupt state). Quarantine = full teardown, never re-pooled;
    // future invocations get a fresh sandbox via a colder rung.
    destroy_pooled(shard, *sandbox);
    ++shard.counters.sandboxes_quarantined;
    return;
  }
  // First strike(s): the failed resume left the sandbox paused, so it can
  // go back to the pool for a later retry (transient failures — a
  // control-plane hiccup — heal this way without losing the warm state).
  std::unique_ptr<vmm::Sandbox> rejected;
  if (!shard.pool.put(function, std::move(sandbox), logical_now(), &rejected)
           .is_ok() &&
      rejected != nullptr) {
    destroy_pooled(shard, *rejected);
    ++shard.counters.pool_overflow_destroyed;
  }
}

util::Expected<std::unique_ptr<vmm::Sandbox>> Platform::try_start_on(
    ControlShard& shard, std::size_t shard_index, FunctionId function,
    const FunctionSpec& spec, StartMode mode, InvocationRecord& record) {
  switch (mode) {
    case StartMode::kCold: {
      auto boot = shard.boot.cold_boot(
          next_sandbox_id_.fetch_add(1, std::memory_order_relaxed),
          spec.sandbox);
      record.init_modelled = boot.boot_time + config_.warm_dispatch_overhead;
      std::unique_ptr<vmm::Sandbox> sandbox = std::move(boot.sandbox);
      util::Stopwatch watch;
      HORSE_RETURN_IF_ERROR(
          lifecycle_engine(shard_index, *sandbox).start(*sandbox));
      record.init_time = record.init_modelled + watch.elapsed();
      return sandbox;
    }
    case StartMode::kRestore: {
      HORSE_RETURN_IF_ERROR(ensure_snapshot_on(shard, shard_index, function));
      auto restored = shard.snapshots.restore(
          shard.snapshot_store.at(function),
          next_sandbox_id_.fetch_add(1, std::memory_order_relaxed));
      if (!restored) {
        // Corrupt snapshot: it will never restore — drop it so the next
        // rung (or invocation) rebuilds a fresh one instead of looping on
        // the same broken image.
        shard.snapshot_store.erase(function);
        return restored.status();
      }
      record.init_modelled =
          restored->modelled_time + config_.warm_dispatch_overhead;
      std::unique_ptr<vmm::Sandbox> sandbox = std::move(restored->sandbox);
      util::Stopwatch watch;
      HORSE_RETURN_IF_ERROR(
          lifecycle_engine(shard_index, *sandbox).start(*sandbox));
      record.init_time =
          record.init_modelled + restored->copy_time + watch.elapsed();
      return sandbox;
    }
    case StartMode::kWarm:
    case StartMode::kHorse: {
      std::unique_ptr<vmm::Sandbox> sandbox = shard.pool.take(function);
      if (sandbox == nullptr) {
        return util::Status{util::StatusCode::kUnavailable,
                            "invoke: no warm sandbox pooled (provision first)"};
      }
      util::Status status;
      if (mode == StartMode::kHorse && spec.sandbox.ull) {
        // Route to the engine whose step-② lock owns the queue this
        // sandbox was assigned to at pause time.
        core::HorseResumeEngine* engine =
            ull_manager_->engine_for_sandbox(*sandbox);
        HORSE_DCHECK(engine != nullptr,
                     "sharded platform always binds >= 1 horse engine");
        status = engine->resume(*sandbox, &record.resume);
      } else {
        // Vanilla warm path; drop any fast-path state the pause installed.
        ull_manager_->untrack(*sandbox);
        sandbox->coalesce().valid = false;
        status = vanilla_->resume(*sandbox, &record.resume);
        record.init_modelled = config_.warm_dispatch_overhead;
      }
      if (!status.is_ok()) {
        // A failed resume leaves the sandbox paused. Strike its health
        // record; quarantine at the threshold, else re-pool for a retry.
        handle_resume_failure(shard, function, std::move(sandbox));
        return status;
      }
      shard.resume_failures.erase(sandbox->id());
      record.init_time = record.resume.total() + record.init_modelled;
      return sandbox;
    }
  }
  return util::Status{util::StatusCode::kInternal, "invoke: unknown mode"};
}

PlatformCounters Platform::counters() const {
  PlatformCounters total;
  for (const auto& shard : shards_) {
    {
      ShardLock lock(shard->mutex, shard->meter);
      total += shard->counters;
      // Breaker opens live in the per-breaker stats (the transition
      // happens inside the state machine); fold them in here.
      for (const auto& [fn, breaker] : shard->breakers) {
        total.breaker_opens += breaker.stats().opens;
      }
    }
    // Pre-lock rejection tallies are atomics (counted without the mutex).
    total.shard_overload_rejections +=
        shard->overload_rejections.load(std::memory_order_relaxed);
    total.deadline_rejections +=
        shard->deadline_rejections.load(std::memory_order_relaxed);
  }
  total.rehydrated_sandboxes = rehydrated_sandboxes();
  return total;
}

std::uint64_t Platform::rehydrated_sandboxes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->rehydrated_sandboxes.load(std::memory_order_relaxed);
  }
  return total;
}

CircuitBreaker::State Platform::breaker_state(FunctionId function) const {
  const ControlShard& s = shard(function);
  ShardLock lock(s.mutex, s.meter);
  const auto it = s.breakers.find(function);
  return it != s.breakers.end() ? it->second.state()
                                : CircuitBreaker::State::kClosed;
}

CircuitBreaker::Stats Platform::breaker_stats(FunctionId function) const {
  const ControlShard& s = shard(function);
  ShardLock lock(s.mutex, s.meter);
  const auto it = s.breakers.find(function);
  return it != s.breakers.end() ? it->second.stats() : CircuitBreaker::Stats{};
}

core::ResumeDegradationStats Platform::resume_degradation_stats() const {
  core::ResumeDegradationStats total;
  for (const auto& engine : horse_engines_) {
    const core::ResumeDegradationStats stats = engine->degradation_stats();
    total.fallback_merges += stats.fallback_merges;
    total.poisoned_index_fallbacks += stats.poisoned_index_fallbacks;
    total.merge_error_fallbacks += stats.merge_error_fallbacks;
    total.in_place_rebuilds += stats.in_place_rebuilds;
  }
  return total;
}

std::vector<std::size_t> Platform::shard_pool_occupancy() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardLock lock(shard->mutex, shard->meter);
    out.push_back(shard->pool.total());
  }
  return out;
}

ControlPlaneSnapshot Platform::control_plane_snapshot() const {
  ControlPlaneSnapshot out;
  out.shard_pool_occupancy.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // One hold per shard: its contention contribution and its pool
    // occupancy describe the same instant.
    ShardLock lock(shard->mutex, shard->meter);
    out.shard_contention += shard->meter.snapshot();
    out.shard_pool_occupancy.push_back(shard->pool.total());
  }
  out.ull = ull_manager_->snapshot();
  return out;
}

// --- facade views ---------------------------------------------------------

std::size_t ShardedWarmPoolView::available(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.pool.available(function);
}

std::size_t ShardedWarmPoolView::provisioned_floor(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.pool.provisioned_floor(function);
}

util::Nanos ShardedWarmPoolView::keep_alive_for(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.pool.keep_alive_for(function);
}

void ShardedWarmPoolView::set_keep_alive_override(FunctionId function,
                                                  util::Nanos keep_alive) {
  auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  shard.pool.set_keep_alive_override(function, keep_alive);
}

std::size_t ShardedWarmPoolView::total() const {
  std::size_t sum = 0;
  for (const std::size_t occupancy : platform_.shard_pool_occupancy()) {
    sum += occupancy;
  }
  return sum;
}

void ShardedWarmPoolView::for_each(
    const std::function<void(FunctionId, const vmm::Sandbox&)>& visit) const {
  for (const auto& shard : platform_.shards_) {
    ShardLock lock(shard->mutex, shard->meter);
    shard->pool.for_each(visit);
  }
}

KeepAliveDecision KeepAlivePolicyView::decide(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.keep_alive.decide(function);
}

std::size_t KeepAlivePolicyView::sample_count(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.keep_alive.sample_count(function);
}

std::size_t KeepAlivePolicyView::oob_count(FunctionId function) const {
  const auto& shard = platform_.shard(function);
  ShardLock lock(shard.mutex, shard.meter);
  return shard.keep_alive.oob_count(function);
}

const KeepAlivePolicyConfig& KeepAlivePolicyView::config() const noexcept {
  // Immutable after construction and identical across shards.
  return platform_.shards_.front()->keep_alive.config();
}

}  // namespace horse::faas
