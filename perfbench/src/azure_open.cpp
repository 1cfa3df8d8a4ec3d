// azure_open — realistic traffic through the cluster front door.
//
// A 2-host ClusterScheduler (default push / round-robin, 1 worker per host)
// serves 64 functions whose Zipf popularity and bursty per-minute rates come
// from trace::SyntheticAzureTrace. One generator thread (the main thread)
// replays the trace open loop, compressed to a fixed average offered rate;
// each request is timed from its due time. The platforms' keep-alive clock
// follows the uncompressed trace time and has no provisioned floor, so tail
// functions expire and their next arrival falls down the ladder to kRestore
// (snapshots are taken at set-up). uLL functions are requested as kHorse,
// plain ones as kWarm.
//
// The schedule is replayed in segments of kSegment. After each segment the
// generator drains the cluster (drain() must not race submit()), checks
// every response against the oracle and frees it; the next segment's due
// times start after the drain. Within a segment the loop is open.

#include <algorithm>
#include <iostream>

#include "cluster/scheduler.hpp"
#include "common.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace faas = horse::faas;
namespace wl = horse::workloads;
using horse::util::kMillisecond;
using horse::util::kSecond;

constexpr std::uint32_t kFunctions = 64;
constexpr std::size_t kDistinct = 32;
/// Offered load, requests per second of wall time. Far below what the two
/// hosts sustain, so a period in which the machine starves the workers
/// does not tip the run into a growing backlog (README.md).
constexpr double kRate = 10'000.0;
constexpr Nanos kSegment = 200 * kMillisecond;
constexpr int kWarmupSegments = 2;
/// Trace-time keep-alive window: functions idle longer than this on a host
/// lose their warm sandbox there.
constexpr Nanos kKeepAlive = 20 * kSecond;
/// advance_time granularity, in trace time.
constexpr Nanos kClockStep = 250 * kMillisecond;
constexpr double kTopRatePerMinute = 500.0;
constexpr Nanos kSloLimit = 150 * horse::util::kMicrosecond;

struct Function {
  Kind kind = Kind::kNat;
  bool ull = false;
  std::uint64_t seed = 0;
  InputSet inputs;
  std::vector<wl::Response> expected;
};

struct Arrival {
  Nanos trace_time = 0;  // uncompressed
  Nanos offset = 0;      // compressed, from the start of the replay
  std::uint32_t function = 0;
  std::uint16_t request = 0;
};

std::vector<Function> make_functions(std::uint64_t seed) {
  constexpr Kind kKinds[] = {Kind::kFirewall, Kind::kNat, Kind::kArrayFilter};
  std::vector<Function> functions(kFunctions);
  for (std::uint32_t i = 0; i < kFunctions; ++i) {
    Function& fn = functions[i];
    fn.ull = i % 4 != 3;
    fn.kind = fn.ull ? kKinds[i % 4] : kKinds[(i / 4) % 3];
    fn.seed = seed * 1000 + i;
    fn.inputs = make_inputs(fn.kind, kDistinct, fn.seed, 0.25);
    const auto oracle = make_body(fn.kind, fn.seed, fn.inputs.allow_rules);
    for (const wl::Request& request : fn.inputs.requests) {
      fn.expected.push_back(oracle->invoke(request));
    }
  }
  return functions;
}

/// Enough arrivals for `total` of wall time at kRate, compressed so their
/// average rate is exactly kRate.
std::vector<Arrival> make_schedule(std::uint64_t seed, Nanos total) {
  const auto wanted = static_cast<std::size_t>(
      static_cast<double>(total) / 1e9 * kRate);
  // About 3.9 x top rate arrivals per trace minute for Zipf(1.1) over 64.
  const double per_minute = kTopRatePerMinute * 3.8;
  horse::trace::SyntheticTraceParams params;
  params.num_functions = kFunctions;
  params.num_minutes = static_cast<std::uint32_t>(
      static_cast<double>(wanted) / per_minute * 1.2 + 2);
  params.top_rate_per_minute = kTopRatePerMinute;
  params.seed = seed;
  const horse::trace::ArrivalSchedule schedule =
      horse::trace::SyntheticAzureTrace(params).generate_schedule();
  if (schedule.size() < wanted) {
    throw std::runtime_error("trace too short for the run");
  }
  std::vector<Arrival> out(wanted);
  const double compression =
      static_cast<double>(schedule.arrivals()[wanted - 1].time) /
      static_cast<double>(total);
  horse::util::Xoshiro256 rng(seed * 31 + 7);
  for (std::size_t i = 0; i < wanted; ++i) {
    const auto& a = schedule.arrivals()[i];
    out[i].trace_time = a.time;
    out[i].offset = static_cast<Nanos>(static_cast<double>(a.time) / compression);
    out[i].function = a.function_id;
    out[i].request = static_cast<std::uint16_t>(rng.bounded(kDistinct));
  }
  return out;
}

std::unique_ptr<horse::cluster::ClusterScheduler> make_cluster(
    std::uint64_t seed, const std::vector<Function>& functions,
    StampBoard& board) {
  horse::cluster::ClusterConfig config;
  config.num_hosts = 2;
  config.workers_per_host = 1;
  config.platform.num_cpus = 8;
  config.platform.seed = seed;
  config.platform.warm_pool.keep_alive = kKeepAlive;
  auto cluster = std::make_unique<horse::cluster::ClusterScheduler>(config);
  for (std::uint32_t i = 0; i < kFunctions; ++i) {
    const Function& fn = functions[i];
    const auto id = cluster->register_function([&fn, &board, i] {
      faas::FunctionSpec spec;
      spec.name = "az-" + std::string(to_string(fn.kind)) + "-" +
                  std::to_string(i);
      spec.implementation = std::make_shared<StampedFunction>(
          make_body(fn.kind, fn.seed, fn.inputs.allow_rules),
          fn.kind == Kind::kArrayFilter ? TagField::kHeader
                                        : TagField::kThreshold,
          board);
      spec.sandbox.name = spec.name + "-sb";
      spec.sandbox.num_vcpus = 1 + i % 2;
      spec.sandbox.memory_mb = 2;
      spec.sandbox.ull = fn.ull;
      return spec;
    });
    if (!id || *id != i) {
      throw std::runtime_error("register_function failed");
    }
    const horse::util::Status snapshot = cluster->ensure_snapshot(i);
    if (!snapshot.is_ok()) {
      throw std::runtime_error("ensure_snapshot: " + snapshot.to_report());
    }
  }
  return cluster;
}

struct Submitted {
  Nanos due = 0;
  Nanos submit_start = 0;
  Nanos submit_end = 0;
  std::uint32_t function = 0;
  std::uint16_t request = 0;
};

struct PassOutput {
  PassStats pass;
  /// How late the generator submitted, relative to the due time.
  LatencyRecorder gen_lag;
  // Traced runs only.
  std::unique_ptr<SpanLog> spans;
  LatencyRecorder horse_start;
  LatencyRecorder warm_start;
  LatencyRecorder restore_start;
  LatencyRecorder repark;
  std::uint64_t allocs = 0;
  std::uint64_t submissions = 0;
  std::uint64_t outcomes = 0;
};

class Replay {
 public:
  Replay(horse::cluster::ClusterScheduler& cluster,
         const std::vector<Function>& functions,
         const std::vector<Arrival>& arrivals, StampBoard& board)
      : cluster_(cluster),
        functions_(functions),
        arrivals_(arrivals),
        board_(board) {}

  /// Replay `segments` segments (the first kWarmupSegments unmeasured).
  PassOutput run(int segments, bool traced) {
    PassOutput out;
    if (traced) {
      out.spans = std::make_unique<SpanLog>(64);
    }
    board_.stamp_starts.store(traced);
    std::uint64_t allocs_begin = 0;
    std::uint64_t gen_allocs_begin = 0;
    for (int s = 0; s < segments; ++s) {
      if (s == kWarmupSegments) {
        set_alloc_counting(traced);
        allocs_begin = total_allocs();
        gen_allocs_begin = thread_allocs();
      }
      replay_segment(s >= kWarmupSegments, traced, out);
    }
    // Every thread's allocations but the generator's own.
    out.allocs =
        (total_allocs() - allocs_begin) - (thread_allocs() - gen_allocs_begin);
    set_alloc_counting(false);
    return out;
  }

 private:
  wl::Request prepare(const Arrival& arrival, std::size_t slot) const {
    const Function& fn = functions_[arrival.function];
    wl::Request request = fn.inputs.requests[arrival.request];
    if (fn.kind == Kind::kArrayFilter) {
      request.header = std::to_string(slot);
    } else {
      request.threshold = static_cast<std::int32_t>(slot);
    }
    return request;
  }

  void replay_segment(bool measured, bool traced, PassOutput& out) {
    const Nanos seg_begin = next_offset_;
    const Nanos seg_end = seg_begin + kSegment;
    std::size_t last = next_;
    while (last < arrivals_.size() && arrivals_[last].offset < seg_end) {
      ++last;
    }
    const std::size_t count = last - next_;
    if (board_.size() < count) {
      board_.resize(count * 2);
    }
    for (std::size_t i = 0; i < count; ++i) {
      board_.slot(i).reset();
    }
    submitted_.resize(count);
    const std::uint64_t seq_base = seq_;

    // CPU of every thread but this one (its pacing spin, the drain wait and
    // the checks below are the benchmark's own work).
    const Nanos cpu_begin = process_cpu() - thread_cpu();
    const Nanos base = now() + 50 * horse::util::kMicrosecond;
    wl::Request request;
    if (count > 0) {
      request = prepare(arrivals_[next_], 0);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const Arrival& arrival = arrivals_[next_ + i];
      Submitted& sub = submitted_[i];
      sub.due = base + (arrival.offset - seg_begin);
      sub.function = arrival.function;
      sub.request = arrival.request;
      while (now() < sub.due) {
        // pacing spin (this thread's CPU is excluded from cpu_us_per_req)
      }
      const faas::StartMode mode = functions_[arrival.function].ull
                                      ? faas::StartMode::kHorse
                                      : faas::StartMode::kWarm;
      sub.submit_start = now();
      cluster_.submit(arrival.function, std::move(request), mode);
      sub.submit_end = now();
      ++seq_;
      // Off the due path: keep the platforms' keep-alive clock on trace
      // time, then build the next request while waiting for its due time.
      if (arrival.trace_time - trace_clock_ >= kClockStep) {
        cluster_.advance_time(arrival.trace_time - trace_clock_);
        trace_clock_ = arrival.trace_time;
      }
      if (i + 1 < count) {
        request = prepare(arrivals_[next_ + i + 1], i + 1);
      }
    }
    next_ = last;
    next_offset_ = seg_end;

    std::vector<faas::SubmissionOutcome> outcomes = cluster_.drain();
    LoadWindow load;
    load.cpu_ns = process_cpu() - thread_cpu() - cpu_begin;
    segment_latency_.clear();
    if (measured) {
      out.submissions += count;
      out.outcomes += outcomes.size();
    }
    // Per host, in execution order (one worker per host): the previous
    // request's re-park shows as the gap from its body return to the next
    // pickup, whenever the next request was already waiting.
    std::array<Nanos, 2> prev_end{0, 0};
    for (const faas::SubmissionOutcome& outcome : outcomes) {
      const std::uint64_t index = outcome.seq - seq_base - 1;
      if (outcome.seq <= seq_base || index >= count) {
        out.pass.failed += measured ? 1 : 0;
        continue;
      }
      const Submitted& sub = submitted_[index];
      const BodyStamps& stamps = board_.slot(index);
      const bool ok =
          outcome.status.is_ok() && stamps.count == 1 &&
          outcome.function == sub.function &&
          same_response(outcome.record.response,
                        functions_[sub.function].expected[sub.request]);
      if (!measured) {
        continue;
      }
      ++out.pass.attempted;
      ++load.attempted;
      out.gen_lag.record(sub.submit_start - sub.due);
      if (!ok) {
        ++out.pass.failed;
        continue;
      }
      ++out.pass.ok;
      ++load.ok;
      const Nanos latency = stamps.last_end() - sub.due;
      out.pass.latency.record(latency);
      segment_latency_.record(latency);
      if (latency <= kSloLimit) {
        ++load.slo_met;
      }
      if (!traced) {
        continue;
      }
      // The dispatcher stamps enqueue inside submit(); its call start is
      // the closest instant visible from outside.
      const Nanos pickup = sub.submit_start + outcome.queueing;
      const Nanos body_start = std::max(stamps.first_start(), pickup);
      const Nanos start_cost = body_start - pickup;
      switch (outcome.record.mode) {
        case faas::StartMode::kHorse: out.horse_start.record(start_cost); break;
        case faas::StartMode::kWarm: out.warm_start.record(start_cost); break;
        case faas::StartMode::kRestore:
          out.restore_start.record(start_cost);
          break;
        case faas::StartMode::kCold: break;
      }
      const std::size_t host = std::min<std::size_t>(outcome.host, 1);
      if (prev_end[host] != 0 && sub.submit_end < prev_end[host] &&
          pickup > prev_end[host]) {
        out.repark.record(pickup - prev_end[host]);
      }
      prev_end[host] = stamps.last_end();
      const std::array<Span, 5> children{{
          {Layer::kGenLag, sub.due, sub.submit_start},
          {Layer::kClusterSubmit, sub.submit_start, sub.submit_end},
          {Layer::kClusterQueueWait, sub.submit_start, pickup},
          {Layer::kFaasStart, pickup, body_start},
          {Layer::kWorkloadsBody, body_start, stamps.last_end()},
      }};
      out.spans->add(outcome.seq, {Layer::kRequest, sub.due, stamps.last_end()},
                     children.data(), children.size());
    }
    if (measured) {
      load.rps =
          static_cast<double>(load.ok) * 1e9 / static_cast<double>(kSegment);
      out.pass.load_windows.push_back(load);
      out.pass.latency_windows.push_back(LatencyWindow::of(segment_latency_));
    }
  }

  horse::cluster::ClusterScheduler& cluster_;
  const std::vector<Function>& functions_;
  const std::vector<Arrival>& arrivals_;
  StampBoard& board_;
  std::vector<Submitted> submitted_;
  LatencyRecorder segment_latency_;
  std::size_t next_ = 0;
  Nanos next_offset_ = 0;
  Nanos trace_clock_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace

void run_azure_open(const Options& options, Result& result) {
  const std::vector<Function> functions = make_functions(options.seed);
  // Untraced runs replay warm-up + `seconds`; traced runs replay an
  // untraced half and a traced half, each with its own warm-up.
  const int measured = std::max(
      1, static_cast<int>(options.seconds * 1e9 /
                          static_cast<double>(kSegment) / (options.trace ? 2 : 1)));
  const int passes = options.trace ? 2 : 1;
  const int total_segments = passes * (kWarmupSegments + measured);
  const std::vector<Arrival> arrivals =
      make_schedule(options.seed, total_segments * kSegment);

  StampBoard board;
  board.inject_wrong_every = options.inject_wrong_every;
  std::unique_ptr<horse::cluster::ClusterScheduler> cluster;
  const double setup_s = measure_setup(
      options.trace, [&] { cluster.reset(); },
      [&] { cluster = make_cluster(options.seed, functions, board); });

  Replay replay(*cluster, functions, arrivals, board);
  std::uint64_t submissions = 0;
  std::uint64_t outcomes = 0;
  if (!options.trace) {
    const PassOutput untraced = replay.run(kWarmupSegments + measured, false);
    submissions = untraced.submissions;
    outcomes = untraced.outcomes;
    result.attempted = untraced.pass.attempted;
    result.failed = untraced.pass.failed;
    report_end_to_end(untraced.pass, result);
    result.set("setup_s", setup_s, "s");
    std::cout << "generator lag p99: "
              << static_cast<double>(untraced.gen_lag.quantile(0.99)) / 1000.0
              << " us\n";
  } else {
    const PassOutput untraced = replay.run(kWarmupSegments + measured, false);
    const PassOutput traced = replay.run(kWarmupSegments + measured, true);
    submissions = untraced.submissions + traced.submissions;
    outcomes = untraced.outcomes + traced.outcomes;
    result.attempted = untraced.pass.attempted + traced.pass.attempted;
    result.failed = untraced.pass.failed + traced.pass.failed;
    PlatformTotals totals;
    for (std::size_t h = 0; h < cluster->num_hosts(); ++h) {
      totals.add(cluster->host(h).platform());
    }
    report_per_layer(totals, *traced.spans, traced.horse_start,
                     traced.warm_start, traced.restore_start,
                     traced.pass.ok == 0
                         ? 0.0
                         : static_cast<double>(traced.allocs) /
                               static_cast<double>(traced.pass.ok),
                     result);
    const SpanLog& spans = *traced.spans;
    const auto us = [](const LatencyRecorder& r, double q) {
      return static_cast<double>(r.quantile(q)) / 1000.0;
    };
    const LatencyRecorder& submit = spans.durations(Layer::kClusterSubmit);
    const LatencyRecorder& wait = spans.durations(Layer::kClusterQueueWait);
    result.set("cluster.submit_ns_p50",
               static_cast<double>(submit.quantile(0.50)), "ns");
    result.set("cluster.submit_ns_p99",
               static_cast<double>(submit.quantile(0.99)), "ns");
    result.set("cluster.queue_wait_us_p50", us(wait, 0.50), "us");
    result.set("cluster.queue_wait_us_p99", us(wait, 0.99), "us");
    result.set("bench.gen_lag_us_p99", us(traced.gen_lag, 0.99), "us");
    result.set("faas.repark_us_p50", us(traced.repark, 0.50), "us");
    result.set("faas.repark_us_p99", us(traced.repark, 0.99), "us");
    const horse::cluster::ClusterStats stats = cluster->stats();
    std::uint64_t dispatched = 0;
    std::uint64_t busiest = 0;
    for (const auto& host : stats.hosts) {
      dispatched += host.dispatched;
      busiest = std::max(busiest, host.dispatched);
    }
    result.set("cluster.host_share_max",
               dispatched == 0 ? 0.0
                               : static_cast<double>(busiest) /
                                     static_cast<double>(dispatched),
               "ratio");
    result.set("bench.trace_overhead_frac",
               trace_overhead(untraced.pass, traced.pass), "ratio");
    write_spans(options, "azure_open", spans);
  }

  if (result.failed != 0) {
    result.violate(std::to_string(result.failed) +
                   " requests failed or answered wrongly");
  }
  if (outcomes != submissions) {
    result.violate("azure_open: " + std::to_string(outcomes) +
                   " outcomes for " + std::to_string(submissions) +
                   " submissions");
  }
  const horse::cluster::ClusterCounters counters = cluster->counters();
  if (counters.completed + counters.shed != counters.submitted) {
    result.violate("azure_open: cluster completed " +
                   std::to_string(counters.completed) + " + shed " +
                   std::to_string(counters.shed) + " != submitted " +
                   std::to_string(counters.submitted));
  }
  for (std::size_t h = 0; h < cluster->num_hosts(); ++h) {
    check_platform_accounting(cluster->host(h).platform(),
                              "azure_open host " + std::to_string(h), result);
  }
}

}  // namespace perfbench
