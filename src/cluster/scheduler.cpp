#include "cluster/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/yield_point.hpp"

namespace horse::cluster {

util::Expected<DispatchMode> parse_dispatch_mode(std::string_view name) {
  if (name == "push" || name == "pull") {
    return name == "push" ? DispatchMode::kPush : DispatchMode::kPull;
  }
  return util::Status{util::StatusCode::kInvalidArgument,
                      "unknown dispatch mode (expected push | pull)"};
}

namespace {

ClusterConfig normalized(ClusterConfig config) {
  config.num_hosts = std::max<std::size_t>(1, config.num_hosts);
  if (config.workers_per_host == 0) {
    config.workers_per_host =
        std::max<std::size_t>(2, config.platform.num_cpus / 2);
  }
  return config;
}

/// Register on every host's registry with `add`; all hosts must hand
/// back the same id.
template <typename Add>
auto add_on_every_host(const std::vector<std::unique_ptr<Host>>& hosts,
                       Add&& add, std::string_view what) {
  auto agreed = add(hosts.front()->platform().registry());
  for (std::size_t i = 1; agreed && i < hosts.size(); ++i) {
    auto result = add(hosts[i]->platform().registry());
    if (result && *result != *agreed) {
      result = util::Status{util::StatusCode::kInternal,
                            "cluster: hosts disagree on " + std::string(what) +
                                " id (registries diverged)"};
    }
    if (!result) {
      return result;
    }
  }
  return agreed;
}

}  // namespace

ClusterScheduler::ClusterScheduler(ClusterConfig config)
    : config_(normalized(std::move(config))),
      router_(config_.num_hosts, config_.policy),
      detector_(config_.num_hosts, config_.health, config_.platform.seed) {
  if (config_.dispatch == DispatchMode::kPull) {
    pull_queue_ =
        std::make_unique<faas::SharedTaskQueue>(config_.pull_queue_capacity);
  }
  hosts_.reserve(config_.num_hosts);
  const util::Nanos max_sojourn =
      config_.admission.enabled ? config_.admission.max_sojourn : 0;
  for (std::size_t i = 0; i < config_.num_hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(i, config_.platform,
                                            config_.workers_per_host,
                                            pull_queue_.get(), max_sojourn));
  }
  if (config_.health.sweep_period > 0) {
    // Time-based health-sweep fallback: submission-driven sweeps only run
    // under traffic, so an idle cluster would never notice a dead host.
    sweeper_ = std::jthread([this](const std::stop_token& stoken) {
      const auto period = std::chrono::nanoseconds(config_.health.sweep_period);
      std::mutex mutex;
      std::condition_variable_any wakeup;
      std::unique_lock lock(mutex);
      // The predicate never passes: each wait ends on the period elapsing
      // (sweep) or on request_stop (exit).
      while (!wakeup.wait_for(lock, stoken, period, [] { return false; }) &&
             !stoken.stop_requested()) {
        check_health();
      }
    });
  }
}

ClusterScheduler::~ClusterScheduler() {
  // Sweeper first: a health sweep must not run against hosts mid-teardown
  // or re-dispatch into a closing pull queue.
  if (sweeper_.joinable()) {
    sweeper_.request_stop();
    sweeper_.join();
  }
  if (pull_queue_) {
    // Unblocks every pull worker; remaining queued tasks are drained and
    // executed before the hosts (declared after the queue, destroyed
    // first) join their workers.
    pull_queue_->close();
  }
}

util::Expected<faas::FunctionId> ClusterScheduler::register_function(
    const std::function<faas::FunctionSpec()>& make_spec) {
  return add_on_every_host(
      hosts_, [&](faas::FunctionRegistry& r) { return r.add(make_spec()); },
      "function");
}

util::Expected<faas::WorkflowId> ClusterScheduler::register_workflow(
    const faas::WorkflowSpec& spec) {
  return add_on_every_host(
      hosts_,
      [&](faas::FunctionRegistry& r) { return r.add_workflow(spec); },
      "workflow");
}

util::Status ClusterScheduler::provision(faas::FunctionId function,
                                         std::size_t count) {
  for (auto& host : hosts_) {
    HORSE_RETURN_IF_ERROR(host->platform().provision(function, count));
  }
  return util::Status::ok();
}

util::Status ClusterScheduler::ensure_snapshot(faas::FunctionId function) {
  for (auto& host : hosts_) {
    HORSE_RETURN_IF_ERROR(host->platform().ensure_snapshot(function));
  }
  return util::Status::ok();
}

void ClusterScheduler::advance_time(util::Nanos delta) {
  for (auto& host : hosts_) {
    host->platform().advance_time(delta);
  }
}

void ClusterScheduler::submit(faas::FunctionId function,
                              workloads::Request request, faas::StartMode mode,
                              util::Nanos deadline) {
  admit_and_dispatch({.function = function,
                      .mode = mode,
                      .request = std::move(request),
                      .deadline = deadline});
}

void ClusterScheduler::submit_chain(faas::WorkflowId workflow,
                                    workloads::Request request,
                                    faas::StartMode mode,
                                    util::Nanos deadline) {
  // Mirror the entry stage in `function` so routing policies and the
  // per-shard dispatch paths see the chain under its first stage's
  // identity. Unknown workflows keep function 0 and surface a typed
  // NotFound outcome at the executing host — same late-failure contract
  // as an unknown function id.
  const auto spec =
      hosts_.front()->platform().registry().find_workflow(workflow);
  admit_and_dispatch({.function = spec ? (*spec)->stages.front() : 0,
                      .mode = mode,
                      .request = std::move(request),
                      .workflow = workflow,
                      .deadline = deadline});
}

void ClusterScheduler::admit_and_dispatch(faas::Submission task) {
  const std::uint64_t seq =
      submitted_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config_.health_check_interval != 0 &&
      seq % config_.health_check_interval == 0) {
    check_health();
  }
  task.enqueued_at = util::monotonic_now();
  task.seq = seq;
  // Idempotency key, assigned exactly once at the front door and carried
  // through every re-dispatch: the orphan ledger dedups on it. A chain
  // carries ONE key (and one deadline) end-to-end — re-dispatches move
  // its hop cursor, never mint a new identity.
  task.key = seq;
  if (config_.admission.enabled) {
    // Fault site first: a spurious shed exercises the whole typed-refusal
    // path (outcome, counters, drain accounting) without real overload.
    if (HORSE_FAULT_POINT("admission.spurious_shed")) {
      spurious_sheds_.fetch_add(1, std::memory_order_relaxed);
      record_shed(task, faas::SubmissionReject::kQueueShed,
                  "admission: spurious shed (fault injection)");
      return;
    }
    if (task.deadline != 0 &&
        sheds_on_slack(
            task.deadline, task.enqueued_at,
            queue_delay_estimate(
                hosts_.size(),
                [this](HostId id) { return hosts_[id]->healthy(); },
                [this](HostId id) { return hosts_[id]->queueing_ewma(); }))) {
      record_shed(task, faas::SubmissionReject::kQueueShed,
                  "admission: estimated queue delay exceeds deadline slack");
      return;
    }
  }
  dispatch(std::move(task));
}

void ClusterScheduler::record_shed(const faas::Submission& task,
                                   faas::SubmissionReject reject,
                                   std::string_view detail) {
  faas::SubmissionOutcome outcome;
  outcome.function = task.function;
  outcome.mode = task.mode;
  outcome.seq = task.seq;
  outcome.key = task.key;
  outcome.workflow = task.workflow;
  outcome.chain_first_hop = task.hop;
  outcome.status = util::Status{reject == faas::SubmissionReject::kQueueFull
                                    ? util::StatusCode::kResourceExhausted
                                    : util::StatusCode::kUnavailable,
                                std::string(detail)};
  outcome.reject = reject;
  {
    std::lock_guard lock(shed_mutex_);
    shed_outcomes_.push_back(std::move(outcome));
  }
  // After the push: once shed_count_ makes drain's termination arithmetic
  // add up, the outcome must already be mergeable.
  shed_count_.fetch_add(1, std::memory_order_acq_rel);
}

void ClusterScheduler::dispatch(faas::Submission task) {
  if (!task.redispatched && HORSE_FAULT_POINT("cluster.dispatch_drop")) {
    // Modelled lost dispatch: the request never reaches its host, the
    // frontend detects the loss and retries. The retry is marked
    // redispatched, which exempts it from this site — exactly once.
    dispatch_drops_.fetch_add(1, std::memory_order_relaxed);
    task.redispatched = true;
  }
  if (config_.dispatch == DispatchMode::kPull) {
    // Deadline traffic must not convoy behind a full queue: a full pull
    // queue means every host is busy AND the buffer is exhausted, so the
    // submission is shed (typed kQueueFull) instead of blocking. Deadline-
    // free and re-dispatched tasks keep the blocking backpressure push —
    // they have no slack to protect, and re-dispatched tasks must never
    // be lost (exactly-once re-dispatch is a structural property).
    if (config_.admission.enabled && task.deadline != 0 &&
        !task.redispatched) {
      faas::Submission meta;  // shed outcome needs only the identity fields
      meta.function = task.function;
      meta.mode = task.mode;
      meta.seq = task.seq;
      meta.key = task.key;
      if (!pull_queue_->try_push(std::move(task))) {
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        record_shed(meta, faas::SubmissionReject::kQueueFull,
                    "admission: pull queue full");
      }
      return;
    }
    pull_queue_->push(std::move(task));
    return;
  }
  const bool want_warm = config_.policy == PolicyKind::kMostWarmSlots;
  std::lock_guard lock(dispatch_mutex_);
  const RouteDecision route = router_.route(
      task.function, [this](HostId id) { return hosts_[id]->healthy(); },
      [&](HostId id) { return hosts_[id]->snapshot(task.function, want_warm); });
  // The sweep's declare-dead takes dispatch_mutex_ too, so a host chosen
  // here cannot be declared dead (and have its queue stolen) before the
  // submit below lands.
  HORSE_YIELD_POINT("cluster.dispatch.routed");
  Host& chosen = *hosts_[route.host];
  if (route.forced) {
    // No healthy host: force-recover the router's pick. The stall model
    // means the host works again once its workers are unparked (a crashed
    // host's restart is forced too).
    chosen.force_recover();
  }
  chosen.submit(std::move(task));
}

void ClusterScheduler::check_health() {
  std::lock_guard guard(health_mutex_);
  const util::Nanos now = util::monotonic_now();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    Host& host = *hosts_[i];
    if (!host.healthy()) {
      // Out of rotation: half-open probe on the backoff schedule. A host
      // that answers (stall cleared, or crashed host restart()ed) is
      // rehydrated and rejoined; one that doesn't backs off further.
      if (detector_.probe_due(i, now)) {
        const bool answered = host.probe();
        if (answered) {
          rejoin_locked(host);
        }
        detector_.probe_result(i, now, answered, host.completed());
      }
      continue;
    }
    switch (detector_.observe(
        i, now, {host.completed(), host.responsive(), host.stalled()})) {
      case LeaseVerdict::kDeclareDead:
        declare_dead_locked(host, now);
        break;
      case LeaseVerdict::kQuarantine:
        redispatch_backlog(host.quarantine());
        break;
      default:
        break;
    }
  }
}

void ClusterScheduler::redispatch_backlog(
    std::vector<faas::Submission> backlog) {
  for (auto& task : backlog) {
    task.redispatched = true;
    redispatched_.fetch_add(1, std::memory_order_relaxed);
    dispatch(std::move(task));
  }
}

void ClusterScheduler::declare_dead_locked(Host& host, util::Nanos now) {
  hosts_declared_dead_.fetch_add(1, std::memory_order_relaxed);
  std::vector<faas::Submission> backlog;
  {
    // Under the dispatch lock (health → dispatch, the existing order), so
    // a dispatch that already routed to this host finishes its submit
    // before the steal, and every later one sees the host out of rotation.
    // Nothing would steal a task queued after the steal: a dead host's
    // workers stay parked until it rejoins.
    std::lock_guard lock(dispatch_mutex_);
    host.mark_dead();
    backlog = host.dispatcher().steal_pending();
  }
  const util::Nanos crashed_at = host.crashed_at();
  if (crashed_at != 0 && now > crashed_at) {
    last_detection_latency_.store(now - crashed_at,
                                  std::memory_order_relaxed);
  }
  // Queued backlog first: these never started, so plain exactly-once
  // re-dispatch (same as the stall path) covers them.
  redispatch_backlog(std::move(backlog));
  // In-flight orphans: the dispatcher always finishes a dequeued task, so
  // each of these WILL surface a late (zombie) completion. The ledger
  // adopts the key and a copy is re-dispatched — drain() keeps whichever
  // outcome lands first and suppresses the other.
  for (auto& task : host.take_inflight()) {
    if (ledger_.adopt(task.key, task.redispatched)) {
      task.redispatched = true;
      dispatch(std::move(task));
    }
  }
}

void ClusterScheduler::rejoin_locked(Host& host) {
  if (config_.health.rehydrate_top_k != 0) {
    // Warm rejoin BEFORE re-entering rotation (the health mutex keeps the
    // half-rejoined host invisible to routing): restore pooled sandboxes
    // for the top-k recently-invoked functions so post-failover traffic
    // resumes kWarm/kHorse instead of kCold. Best-effort — a failed
    // restore must not keep an otherwise-live host out of the cluster.
    (void)host.rehydrate_warm(config_.health.rehydrate_top_k,
                              config_.health.rehydrate_per_function);
  }
  host.force_recover();
  hosts_rejoined_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<faas::SubmissionOutcome> ClusterScheduler::drain() {
  while (true) {
    check_health();
    // Each in-flight orphan re-dispatched off a declared-dead host yields
    // exactly TWO host outcomes (the zombie completion plus the copy), so
    // the target grows with the ledger. Both terms are re-read every
    // iteration — the sweep above can declare further deaths mid-drain.
    const std::uint64_t target =
        submitted_.load(std::memory_order_acquire) + ledger_.adopted();
    // Shed submissions never reach a host; their typed outcomes complete
    // the accounting (completed + shed == submitted + orphans when idle).
    std::uint64_t done = shed_count_.load(std::memory_order_acquire);
    for (const auto& host : hosts_) {
      done += host->completed();
    }
    if (done >= target) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<faas::SubmissionOutcome> out;
  {
    // Ledger consultation only — no dispatching happens under this hold,
    // so the health → dispatch lock edge is not exercised here.
    std::lock_guard guard(health_mutex_);
    for (auto& host : hosts_) {
      for (auto& outcome : host->dispatcher().take_outcomes()) {
        // The second sighting of an orphaned key (zombie vs re-dispatched
        // copy, whichever landed later) is suppressed as a typed
        // kDuplicateSuppressed — counted, never surfaced, so every
        // submission completes exactly once.
        if (ledger_.deliver(outcome.key)) {
          out.push_back(std::move(outcome));
        }
      }
    }
  }
  {
    std::lock_guard lock(shed_mutex_);
    std::move(shed_outcomes_.begin(), shed_outcomes_.end(),
              std::back_inserter(out));
    shed_outcomes_.clear();
  }
  return out;
}

ClusterCounters ClusterScheduler::counters() const {
  ClusterCounters counters;
  counters.submitted = submitted_.load(std::memory_order_acquire);
  for (const auto& host : hosts_) {
    counters.completed += host->completed();
    counters.host_stalls += host->stall_faults();
    counters.expired += host->expired();
    counters.host_crashes += host->crash_faults();
    counters.hosts_quarantined += host->healthy() ? 0 : 1;
    counters.rehydrated_sandboxes += host->platform().rehydrated_sandboxes();
  }
  counters.shed = shed_count_.load(std::memory_order_acquire);
  counters.shed_queue_full =
      shed_queue_full_.load(std::memory_order_relaxed);
  counters.spurious_sheds = spurious_sheds_.load(std::memory_order_relaxed);
  counters.redispatched = redispatched_.load(std::memory_order_relaxed);
  counters.dispatch_drops = dispatch_drops_.load(std::memory_order_relaxed);
  counters.forced_routes = router_.forced_routes();
  counters.missed_heartbeats = detector_.missed_heartbeats();
  counters.hosts_declared_dead =
      hosts_declared_dead_.load(std::memory_order_relaxed);
  counters.probes = detector_.probes();
  counters.hosts_rejoined = hosts_rejoined_.load(std::memory_order_relaxed);
  counters.orphans_redispatched = ledger_.adopted();
  counters.duplicates_suppressed = ledger_.suppressed();
  counters.degraded_single_host = router_.degraded_single_host();
  return counters;
}

ClusterStats ClusterScheduler::stats() const {
  ClusterStats stats;
  stats.policy = config_.policy;
  stats.dispatch = config_.dispatch;
  stats.counters = counters();
  stats.hosts.reserve(hosts_.size());
  const std::vector<std::uint64_t> decisions = [this] {
    std::lock_guard lock(dispatch_mutex_);
    return router_.decisions();
  }();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const Host& host = *hosts_[i];
    HostStats entry;
    entry.host = host.id();
    entry.healthy = host.healthy();
    entry.dispatched = host.dispatched();
    entry.completed = host.completed();
    entry.policy_decisions = decisions[i];
    entry.stall_faults = host.stall_faults();
    entry.crashed = host.crashed();
    entry.crash_faults = host.crash_faults();
    entry.expired = host.expired();
    entry.queueing_ewma = host.queueing_ewma();
    const HostSnapshot snapshot = host.snapshot(0, false);
    entry.queued = snapshot.queued;
    entry.in_flight = snapshot.in_flight;
    entry.free_slots = snapshot.free_slots;
    const faas::ControlPlaneSnapshot plane =
        host.platform().control_plane_snapshot();
    for (const std::size_t occupancy : plane.shard_pool_occupancy) {
      entry.pool_sandboxes += occupancy;
    }
    for (const auto& queue : plane.ull.occupancy) {
      entry.ull_paused += queue.paused;
    }
    entry.dispatch_latency = host.dispatch_latency();
    stats.hosts.push_back(std::move(entry));
  }
  return stats;
}

}  // namespace horse::cluster
