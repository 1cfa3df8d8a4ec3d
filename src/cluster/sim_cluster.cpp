#include "cluster/sim_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace horse::cluster {

namespace {

/// A nominal service time run at a host's speed multiplier.
util::Nanos scaled(util::Nanos service, double speed) {
  return static_cast<util::Nanos>(static_cast<double>(service) * speed);
}

}  // namespace

SimCluster::SimCluster(SimClusterParams params)
    : params_([&] {
        params.num_hosts = std::max<std::size_t>(1, params.num_hosts);
        return std::move(params);
      }()),
      router_(params_.num_hosts, params_.policy),
      rng_(params_.seed) {
  hosts_.resize(params_.num_hosts);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].params =
        i < params_.hosts.size() ? params_.hosts[i] : params_.defaults;
    if (hosts_[i].params.slots == 0) {
      hosts_[i].params.slots = 1;
    }
  }
}

HostSnapshot SimCluster::snapshot_of(HostId id) const {
  const SimHost& host = hosts_[id];
  const std::size_t busy = host.in_flight + host.queue.size();
  return {.host = id,
          .healthy = host.healthy,
          .free_slots = host.params.slots > busy ? host.params.slots - busy : 0,
          .queued = host.queue.size(),
          .in_flight = host.in_flight,
          .capacity = host.params.slots,
          .warm_slots = host.params.warm_slots,
          .dispatched = host.dispatched};
}

util::Nanos SimCluster::jittered(util::Nanos service) {
  // One draw per task, taken in submission order, so the RNG stream (and
  // therefore every downstream decision) is a pure function of the seed
  // and the submission sequence.
  const double jitter = params_.defaults.jitter;
  if (jitter <= 0.0) {
    return service;
  }
  const double factor = std::max(0.05, rng_.normal(1.0, jitter));
  return static_cast<util::Nanos>(static_cast<double>(service) * factor);
}

void SimCluster::record_rejection(const Task& task, util::Nanos at,
                                  faas::SubmissionReject reject) {
  // The ledger covers rejections too: if an orphan's re-dispatched copy
  // expires at dequeue AFTER its zombie already completed (or vice
  // versa), the second typed outcome is suppressed — exactly one outcome
  // per seq, whatever its kind.
  if (!ledger_.deliver(task.seq)) {
    return;
  }
  rejections_.push_back({task.seq, task.function, at, reject});
}

bool SimCluster::expire_if_due(const Task& task, util::Nanos at) {
  if (!params_.admission || task.deadline == 0 || at < task.deadline) {
    return false;
  }
  record_rejection(task, at, faas::SubmissionReject::kDeadlineExpired);
  return true;
}

void SimCluster::start_on(HostId id, Task task, util::Nanos at) {
  SimHost& host = hosts_[id];
  task.started_at = at;
  // In-flight registration BEFORE the service field is rewritten below:
  // the stolen copy keeps the nominal (pre-scaling) service time so a
  // re-dispatched orphan re-scales on its rescue host, as in reality.
  host.running.emplace(task.seq, task);
  host.queueing_ewma = ewma_step(host.queueing_ewma, at - task.arrival);
  ++host.in_flight;
  // Chains scale stage-by-stage so the finish time equals the last stage
  // boundary exactly — declare_dead's hop arithmetic and the finish heap
  // must place the same boundaries or a completed stage could look
  // un-run (and re-execute) after an orphan re-dispatch.
  util::Nanos span = 0;
  if (task.stage_services.empty()) {
    span = scaled(task.service, host.params.speed);
  } else {
    for (std::size_t i = task.hop; i < task.stage_services.size(); ++i) {
      span += scaled(task.stage_services[i], host.params.speed);
    }
  }
  Finish finish;
  finish.time = at + host.params.overhead + span;
  finish.order = next_order_++;
  finish.host = id;
  finish.task = std::move(task);
  // Overwrite service with the actual run span so completion can recover
  // start = finish.time - service without carrying a separate field.
  finish.task.service = finish.time - at;
  finishes_.push(std::move(finish));
}

void SimCluster::dispatch(Task task, util::Nanos at) {
  if (params_.dispatch == DispatchMode::kPull) {
    shared_queue_.push_back(std::move(task));
    pull_try_bind(at);
    return;
  }
  const RouteDecision route = router_.route(
      task.function, [this](HostId id) { return hosts_[id].healthy; },
      [this](HostId id) { return snapshot_of(id); });
  decisions_.push_back(
      {.seq = task.seq,
       .time = at,
       .function = task.function,
       .host = route.host,
       .candidates = {route.candidates.begin(), route.candidates.end()},
       .forced = route.forced});
  place(route.host, std::move(task), at);
}

void SimCluster::place(HostId id, Task task, util::Nanos at) {
  SimHost& host = hosts_.at(id);
  ++host.dispatched;
  if (host.in_flight >= host.params.slots) {
    host.queue.push_back(std::move(task));
  } else if (!expire_if_due(task, at)) {
    // Starting now IS the dequeue; a task whose deadline has already
    // passed is expired instead of run (the slot stays free).
    start_on(id, std::move(task), at);
  }
}

void SimCluster::pull_try_bind(util::Nanos at) {
  while (!shared_queue_.empty()) {
    // Late binding: the task goes to a host that has a free slot RIGHT
    // NOW. Deterministic stand-in for "first idle worker at the queue":
    // most free slots, then lowest id.
    HostId best = 0;
    std::size_t best_free = 0;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const SimHost& host = hosts_[i];
      const std::size_t free = host.healthy && host.params.slots > host.in_flight
                                   ? host.params.slots - host.in_flight
                                   : 0;
      if (free > best_free) {
        best_free = free;
        best = i;
      }
    }
    if (best_free == 0) {
      return;  // every healthy host is saturated; tasks wait unbound
    }
    Task task = std::move(shared_queue_.front());
    shared_queue_.pop_front();
    // Expire-at-dequeue: a stale task is refused before binding a slot;
    // the loop keeps draining so fresh work behind it still binds now.
    if (expire_if_due(task, at)) {
      continue;
    }
    decisions_.push_back({.seq = task.seq,
                          .time = at,
                          .function = task.function,
                          .host = best});
    ++hosts_[best].dispatched;
    start_on(best, std::move(task), at);
  }
}

void SimCluster::complete_due(util::Nanos now) {
  while (!finishes_.empty() && finishes_.top().time <= now) {
    Finish finish = finishes_.top();
    finishes_.pop();
    SimHost& host = hosts_[finish.host];
    --host.in_flight;
    host.running.erase(finish.task.seq);  // no-op if declare_dead stole it
    // Dedup ledger: an orphaned seq delivers exactly one completion —
    // zombie or re-dispatched copy, whichever finishes first.
    if (ledger_.deliver(finish.task.seq)) {
      completions_.push_back(
          {.seq = finish.task.seq,
           .function = finish.task.function,
           .host = finish.host,
           .arrival = finish.task.arrival,
           .start = finish.time - finish.task.service,
           .finish = finish.time,
           .deadline = finish.task.deadline,
           .chain_hop = finish.task.hop,
           .chain_stages =
               static_cast<std::uint32_t>(finish.task.stage_services.size())});
    }
    if (params_.dispatch == DispatchMode::kPush) {
      // The freed slot starts the host's own backlog head (push keeps
      // per-host FIFO order). Unhealthy hosts still finish in-flight work
      // but leave their backlog for steal_backlog(). Stale heads are
      // expired (not run), so the loop keeps dequeuing until a live task
      // takes the slot or the backlog empties.
      while (host.healthy && !host.queue.empty() &&
             host.in_flight < host.params.slots) {
        Task next = std::move(host.queue.front());
        host.queue.pop_front();
        if (expire_if_due(next, finish.time)) {
          continue;
        }
        start_on(finish.host, std::move(next), finish.time);
      }
    } else {
      pull_try_bind(finish.time);
    }
  }
}

void SimCluster::advance_to(util::Nanos now) {
  if (now < now_) {
    throw std::logic_error("SimCluster: time went backwards");
  }
  complete_due(now);
  now_ = now;
}

void SimCluster::submit(util::Nanos at, faas::FunctionId function,
                        util::Nanos service, util::Nanos deadline) {
  advance_to(at);
  // The jitter draw comes before any shed: the RNG stream stays a pure
  // function of the submission sequence.
  admit_or_dispatch({.seq = next_seq_++,
                     .function = function,
                     .arrival = at,
                     .service = jittered(service),
                     .deadline = deadline},
                    at);
}

void SimCluster::submit_chain(util::Nanos at, faas::FunctionId function,
                              const std::vector<util::Nanos>& stage_services,
                              util::Nanos deadline) {
  if (stage_services.empty()) {
    throw std::invalid_argument("SimCluster: chain needs at least one stage");
  }
  advance_to(at);
  Task task{.seq = next_seq_++,
            .function = function,
            .arrival = at,
            .deadline = deadline};
  // ONE jitter draw scales the whole chain (drawn before any shed, like
  // submit): every submission — chain or plain — consumes exactly one
  // draw, keeping the stream a pure function of the submission sequence.
  const util::Nanos total = std::accumulate(
      stage_services.begin(), stage_services.end(), util::Nanos{0});
  const util::Nanos jittered_total = jittered(total);
  task.stage_services.reserve(stage_services.size());
  if (total == 0) {
    task.stage_services = stage_services;  // all-zero stages stay zero
  } else {
    // Distribute proportionally; the last stage absorbs rounding so the
    // stage boundaries sum to the finish time exactly.
    util::Nanos accumulated = 0;
    for (std::size_t i = 0; i < stage_services.size(); ++i) {
      const util::Nanos share =
          i + 1 == stage_services.size()
              ? jittered_total - accumulated
              : static_cast<util::Nanos>(static_cast<double>(stage_services[i]) *
                                         static_cast<double>(jittered_total) /
                                         static_cast<double>(total));
      task.stage_services.push_back(share);
      accumulated += share;
    }
  }
  task.service = jittered_total;
  admit_or_dispatch(std::move(task), at);
}

void SimCluster::admit_or_dispatch(Task task, util::Nanos at) {
  if (params_.admission && task.deadline != 0) {
    if (sheds_on_slack(
            task.deadline, at,
            queue_delay_estimate(
                hosts_.size(), [this](HostId id) { return hosts_[id].healthy; },
                [this](HostId id) { return hosts_[id].queueing_ewma; }))) {
      record_rejection(task, at, faas::SubmissionReject::kQueueShed);
      return;
    }
    if (params_.dispatch == DispatchMode::kPull &&
        params_.pull_queue_capacity != 0 &&
        shared_queue_.size() >= params_.pull_queue_capacity) {
      record_rejection(task, at, faas::SubmissionReject::kQueueFull);
      return;
    }
  }
  dispatch(std::move(task), at);
}

util::Nanos SimCluster::run_to_completion() {
  while (!finishes_.empty()) {
    const util::Nanos next = finishes_.top().time;
    complete_due(next);
    now_ = std::max(now_, next);
  }
  return now_;
}

void SimCluster::set_healthy(HostId host, bool healthy) {
  hosts_.at(host).healthy = healthy;
  if (healthy && params_.dispatch == DispatchMode::kPull) {
    pull_try_bind(now_);
  }
}

std::vector<std::uint64_t> SimCluster::steal_backlog(HostId host) {
  std::vector<std::uint64_t> seqs;
  for (Task& task : std::exchange(hosts_.at(host).queue, {})) {
    seqs.push_back(task.seq);
    task.redispatched = true;
    stolen_.push_back(std::move(task));
  }
  return seqs;
}

void SimCluster::redispatch(std::uint64_t seq, util::Nanos at) {
  advance_to(at);
  const auto it =
      std::find_if(stolen_.begin(), stolen_.end(),
                   [seq](const Task& task) { return task.seq == seq; });
  if (it == stolen_.end()) {
    throw std::logic_error("SimCluster: redispatch of a task never stolen");
  }
  Task task = std::move(*it);
  stolen_.erase(it);
  dispatch(std::move(task), at);
}

void SimCluster::crash_host(HostId host, util::Nanos at) {
  advance_to(at);
  SimHost& victim = hosts_.at(host);
  victim.crashed = true;
  victim.healthy = false;
  victim.params.warm_slots = 0;  // a dead host's warm state is gone
  decisions_.push_back({.time = at, .host = host, .kind = SimEventKind::kCrash});
}

std::vector<std::uint64_t> SimCluster::declare_dead(HostId host,
                                                    util::Nanos at) {
  advance_to(at);
  SimHost& victim = hosts_.at(host);
  victim.healthy = false;
  // Queued backlog: never started, so plain exactly-once re-dispatch.
  std::vector<std::uint64_t> seqs = steal_backlog(host);
  // In-flight orphans: their Finish entries stay scheduled (the host
  // always finishes a started task — the zombie), and a fresh copy goes
  // through the ledger so exactly one completion per seq survives. They
  // are taken in seq order, so the stolen set replays bit-identically.
  for (auto& [seq, task] : std::exchange(victim.running, {})) {
    if (!ledger_.adopt(task.seq, task.redispatched)) {
      continue;
    }
    if (!task.stage_services.empty()) {
      // Chain orphan: advance the stolen copy's hop cursor past every
      // stage whose boundary the dying host had reached by `at` — the
      // re-dispatch resumes from the frontier and never re-executes a
      // completed stage. Boundaries are rebuilt with the dying host's own
      // speed/overhead, per-stage, exactly as start_on scheduled them.
      // (advance_to(at) above already completed anything fully done, so
      // at least one stage always remains.)
      util::Nanos boundary = task.started_at + victim.params.overhead;
      std::uint32_t hop = task.hop;
      while (hop < task.stage_services.size()) {
        boundary += scaled(task.stage_services[hop], victim.params.speed);
        if (boundary > at) {
          break;
        }
        ++hop;
      }
      task.hop = hop;
      task.service = std::accumulate(task.stage_services.begin() + hop,
                                     task.stage_services.end(), util::Nanos{0});
    }
    seqs.push_back(task.seq);
    task.redispatched = true;
    stolen_.push_back(std::move(task));
  }
  decisions_.push_back(
      {.time = at, .host = host, .kind = SimEventKind::kDeclareDead});
  return seqs;
}

void SimCluster::recover_host(HostId host, util::Nanos at,
                              std::size_t rehydrated_warm_slots) {
  advance_to(at);
  SimHost& revived = hosts_.at(host);
  revived.crashed = false;
  revived.healthy = true;
  revived.params.warm_slots = rehydrated_warm_slots;
  decisions_.push_back(
      {.time = at, .host = host, .kind = SimEventKind::kRejoin});
  if (params_.dispatch == DispatchMode::kPull) {
    pull_try_bind(at);  // the rejoined host's slots are pullable again
  }
}

void SimCluster::occupy(HostId host, std::size_t count, util::Nanos service) {
  for (std::size_t i = 0; i < count; ++i) {
    place(host, {.seq = next_seq_++, .arrival = now_, .service = service},
          now_);
  }
}

void SimCluster::set_warm_slots(HostId host, std::size_t warm) {
  hosts_.at(host).params.warm_slots = warm;
}

std::vector<std::uint64_t> SimCluster::dispatch_counts() const {
  std::vector<std::uint64_t> out(hosts_.size());
  std::ranges::transform(hosts_, out.begin(), &SimHost::dispatched);
  return out;
}

metrics::Histogram SimCluster::queueing_histogram() const {
  metrics::Histogram out;
  for (const SimCompletion& done : completions_) {
    out.record(done.queueing());
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> split_indices(
    const std::vector<util::Nanos>& times,
    const std::vector<faas::FunctionId>& functions, SimClusterParams params,
    util::Nanos service_hint) {
  if (times.size() != functions.size()) {
    throw std::invalid_argument("split_indices: times/functions mismatch");
  }
  SimCluster cluster(params);
  for (std::size_t i = 0; i < times.size(); ++i) {
    cluster.submit(times[i], functions[i], service_hint);
  }
  cluster.run_to_completion();
  std::vector<std::vector<std::uint64_t>> out(
      std::max<std::size_t>(1, params.num_hosts));
  for (const SimDecision& decision : cluster.decisions()) {
    // occupy()/redispatch bookkeeping never reaches here: every submitted
    // arrival produced exactly one decision in both modes.
    if (decision.seq < times.size()) {
      out[decision.host].push_back(decision.seq);
    }
  }
  return out;
}

}  // namespace horse::cluster
