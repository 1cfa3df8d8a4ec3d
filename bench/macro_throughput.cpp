// Macro benchmark (ours) — closed-loop control-plane throughput scaling,
// single-host and multi-host.
//
// Single-host mode (--hosts 0, the default) measures the sharded control
// plane's scaling claim: N submit threads driving disjoint function sets
// should deliver ~N× the aggregate invocations/sec of one thread (until
// real cores run out):
//
//   * F functions (mixed uLL / plain), each provisioned with a small warm
//     pool and snapshot;
//   * T closed-loop submit threads, each owning the functions
//     {t, t+T, t+2T, ...} so threads map onto disjoint control shards;
//   * a fixed per-thread invocation count with a steady mode mix (mostly
//     kHorse for uLL / kWarm for plain, a sprinkle of kCold + kRestore);
//   * results as a table plus optional CSV (--csv), including the shard
//     and ull-manager lock contention fractions that explain any
//     sub-linear scaling. Contention and occupancy come from ONE
//     control-plane snapshot so each reported row is internally
//     consistent (occupancy read separately from the contention counters
//     could straddle concurrent assign/untrack calls).
//
// Cluster mode (--hosts N, N >= 1) runs the same workload through the
// multi-host ClusterScheduler and reports per-host dispatch-latency
// percentiles — the E18 policy × dispatch-mode matrix:
//
//   macro_throughput --hosts 4 --policy rr|least_loaded|most_warm
//                    --dispatch push|pull [--skew] [--csv out.csv]
//
// --skew switches the closed-loop mix to the 90/10 shape (90% tiny uLL
// kHorse requests, 10% cold starts of a plain function, thousands of
// times slower): under push the long requests convoy short ones behind
// them on the early-bound host, under pull an idle host takes the next
// request the moment a worker frees — E18's expectation is a visibly
// lower p99 for pull under this skew.
//
// Overload mode (--overload-sweep, cluster only) is the E19 driver: it
// first calibrates the cluster's closed-loop capacity (no deadlines, no
// pacing), then replays the same mix open-loop at {0.8x, 1.2x, 2.0x} of
// that capacity with a per-request deadline (--deadline-us, default
// 5 ms). Each submission carries deadline = now + slack, so past
// saturation the admission path sheds (typed kQueueShed/kQueueFull) and
// the dispatcher expires stale queue entries instead of wasting workers
// on work the caller already abandoned. The CSV reports per-load goodput
// (deadline-met completions/s), shed/expiry counts, and breaker opens;
// with admission enabled the bench FAILS if goodput past saturation
// drops below 90% of the peak row — the graceful-degradation gate CI
// enforces. --no-admission runs the same sweep with cluster admission
// off for the baseline column.
//
// Crash mode (--kill-host ID@N / --crash-sweep, cluster only) is the
// E20 driver: phase-1 traffic crashes host ID after N submissions
// (--crash-sweep defaults to host 0 at the halfway point), the lease
// failure detector declares it dead and re-dispatches its backlog and
// in-flight orphans through the dedup ledger, the host restarts
// --restart-after-us after that declared death and rejoins through a
// half-open probe, then a phase-2 burst measures the post-failover
// warm-hit rate on the killed host. The run FAILS on any lost or double-executed submission;
// --crash-sweep additionally runs a --no-rehydrate baseline and FAILS
// unless warm rejoin rehydration strictly beats it on post-failover
// warm hits. The report includes the recovery counter table (detection
// latency, orphans re-dispatched, duplicates suppressed, rejoins).
//
// CI runs single-host --threads 1/8 plus a --hosts 4 cluster smoke in
// both dispatch modes, archiving the CSVs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "faas/platform.hpp"
#include "metrics/csv.hpp"
#include "metrics/histogram.hpp"
#include "metrics/reporter.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/firewall.hpp"
#include "workloads/nat.hpp"

namespace {

using namespace horse;

struct Options {
  std::size_t threads = 4;
  std::size_t per_thread = 2000;
  std::size_t functions = 16;
  std::size_t cpus = 16;
  std::uint32_t ull_queues = 4;
  std::size_t provision = 4;
  std::string csv_path;
  // --- cluster mode (0 hosts = legacy single-host path) -------------------
  std::size_t hosts = 0;
  std::size_t workers_per_host = 2;
  cluster::PolicyKind policy = cluster::PolicyKind::kRoundRobin;
  cluster::DispatchMode dispatch = cluster::DispatchMode::kPush;
  bool skew = false;
  std::uint64_t seed = 42;
  // --- overload control (cluster mode) ------------------------------------
  /// Relative per-request deadline in microseconds (0 = none).
  std::uint64_t deadline_us = 0;
  /// Calibrate capacity, then sweep {0.8x, 1.2x, 2.0x} offered load.
  bool overload_sweep = false;
  /// Cluster admission control (--no-admission turns it off: baseline).
  bool admission = true;
  // --- crash tolerance (cluster mode) --------------------------------------
  /// --kill-host ID@N: crash host ID after N total submissions; the
  /// failure detector declares it dead and recovers the orphans.
  bool kill = false;
  std::size_t kill_host = 0;
  std::size_t kill_after = 0;
  /// The crashed host's process comes back this long after the detector
  /// declares it dead (the half-open probe path rejoins it).
  std::uint64_t restart_after_us = 2000;
  /// E20: run the crash once with warm rejoin rehydration and once
  /// without, and gate on rehydration winning post-failover warm hits.
  bool crash_sweep = false;
  /// --no-rehydrate: disable rejoin rehydration (the baseline column).
  bool rehydrate = true;
  // --- workflow chains (single-host) ----------------------------------------
  /// E21: comma-separated stage workloads (firewall|nat|array_filter),
  /// e.g. --chain firewall,nat,array_filter. Measures the same chain
  /// fused (one kHorse resume), unfused (per-hop dispatch), and
  /// cross-sandbox (shape-mismatched stages, planner splits) and gates on
  /// fused strictly beating unfused p99.
  std::string chain;
};

Options parse_args(int argc, char** argv) {
  Options options;
  const auto usage = [] {
    std::cerr << "usage: macro_throughput [--threads N] [--per-thread M]\n"
                 "    [--functions F] [--cpus C] [--ull-queues Q]\n"
                 "    [--provision P] [--csv PATH]\n"
                 "    [--hosts H] [--workers-per-host W]\n"
                 "    [--policy rr|least_loaded|most_warm]\n"
                 "    [--dispatch push|pull] [--skew] [--seed S]\n"
                 "    [--deadline-us D] [--overload-sweep] [--no-admission]\n"
                 "    [--kill-host ID@N] [--restart-after-us U]\n"
                 "    [--crash-sweep] [--no-rehydrate]\n"
                 "    [--chain w1,w2,... (firewall|nat|array_filter)]\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--per-thread") {
      options.per_thread = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--functions") {
      options.functions = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cpus") {
      options.cpus = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--ull-queues") {
      options.ull_queues =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--provision") {
      options.provision = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--csv") {
      options.csv_path = next();
    } else if (arg == "--hosts") {
      options.hosts = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--workers-per-host") {
      options.workers_per_host = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--policy") {
      const auto policy = cluster::parse_policy(next());
      if (!policy) {
        std::cerr << policy.status().to_report() << "\n";
        std::exit(2);
      }
      options.policy = *policy;
    } else if (arg == "--dispatch") {
      const auto mode = cluster::parse_dispatch_mode(next());
      if (!mode) {
        std::cerr << mode.status().to_report() << "\n";
        std::exit(2);
      }
      options.dispatch = *mode;
    } else if (arg == "--skew") {
      options.skew = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--deadline-us") {
      options.deadline_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--overload-sweep") {
      options.overload_sweep = true;
    } else if (arg == "--no-admission") {
      options.admission = false;
    } else if (arg == "--kill-host") {
      const char* value = next();
      char* end = nullptr;
      options.kill_host = std::strtoull(value, &end, 10);
      if (end == nullptr || *end != '@') {
        std::cerr << "--kill-host wants ID@N (host id, '@', submission "
                     "index)\n";
        std::exit(2);
      }
      options.kill_after = std::strtoull(end + 1, nullptr, 10);
      options.kill = true;
    } else if (arg == "--restart-after-us") {
      options.restart_after_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--crash-sweep") {
      options.crash_sweep = true;
    } else if (arg == "--no-rehydrate") {
      options.rehydrate = false;
    } else if (arg == "--chain") {
      options.chain = next();
    } else {
      usage();
    }
  }
  if (options.crash_sweep || options.kill) {
    if (options.hosts < 2) {
      std::cerr << "--crash-sweep / --kill-host require --hosts >= 2 "
                   "(somewhere for the orphans to go)\n";
      std::exit(2);
    }
    if (options.overload_sweep) {
      std::cerr << "--crash-sweep and --overload-sweep are exclusive\n";
      std::exit(2);
    }
    if (options.kill && options.kill_host >= options.hosts) {
      std::cerr << "--kill-host id " << options.kill_host
                << " out of range (hosts=" << options.hosts << ")\n";
      std::exit(2);
    }
    if (options.kill &&
        options.kill_after >=
            std::max<std::size_t>(1, options.threads) * options.per_thread) {
      std::cerr << "--kill-host @N must land inside the run "
                   "(N < threads * per-thread)\n";
      std::exit(2);
    }
  }
  if (options.overload_sweep) {
    if (options.hosts == 0) {
      std::cerr << "--overload-sweep requires cluster mode (--hosts N)\n";
      std::exit(2);
    }
    if (options.deadline_us == 0) {
      options.deadline_us = 5000;  // 5 ms of slack by default
    }
  }
  if (!options.chain.empty() &&
      (options.hosts != 0 || options.overload_sweep || options.kill ||
       options.crash_sweep)) {
    std::cerr << "--chain is a single-host mode (no --hosts/--overload-sweep/"
                 "--kill-host/--crash-sweep)\n";
    std::exit(2);
  }
  return options;
}

workloads::Request filter_request() {
  workloads::Request request;
  request.payload = {5, 10, 15, 20};
  request.threshold = 7;
  return request;
}

workloads::Request packet_request() {
  workloads::Request request;
  request.header = "src=10.0.0.1 dst=10.0.0.2 port=443 proto=tcp";
  return request;
}

/// Start mode of the n-th closed-loop call over `functions` functions
/// visited round-robin (call n visits function n % functions for the
/// (n / functions)-th time). Every function gets one cold start (and,
/// with `restores`, one snapshot restore) per 64 of its own visits, the
/// phase offset by its slot so they do not all go cold in the same
/// round; every other visit is warm, kHorse for uLL functions. Keying on
/// n % 64 instead would land every cold/restore start on one function
/// whenever 64 is a multiple of the function count.
faas::StartMode mix_mode(std::size_t n, std::size_t functions, bool ull,
                         bool restores) {
  const std::size_t phase = (n / functions + n % functions) % 64;
  if (phase == 63) {
    return faas::StartMode::kCold;
  }
  if (restores && phase == 31) {
    return faas::StartMode::kRestore;
  }
  return ull ? faas::StartMode::kHorse : faas::StartMode::kWarm;
}

faas::FunctionSpec make_spec(std::size_t index, bool ull) {
  faas::FunctionSpec spec;
  spec.name = (ull ? "nat-" : "filter-") + std::to_string(index);
  if (ull) {
    spec.implementation = std::make_shared<workloads::NatFunction>(64);
  } else {
    spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  }
  spec.sandbox.name = spec.name + "-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = ull;
  return spec;
}

// ---------------------------------------------------------------------------
// Single-host path (--hosts 0): the original sharded-control-plane bench.
// ---------------------------------------------------------------------------

int run_single_host(const Options& options) {
  faas::PlatformConfig config;
  config.num_cpus = options.cpus;
  config.horse.num_ull_runqueues = options.ull_queues;
  // Substrate constructors throw on invalid configs (queues > cpus,
  // zero queues, ...); surface that as a usage error, not a terminate.
  std::optional<faas::Platform> platform_storage;
  try {
    platform_storage.emplace(config);
  } catch (const std::exception& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }
  faas::Platform& platform = *platform_storage;

  // Register F functions: even ids are uLL packet functions (kHorse-able),
  // odd ids are plain filter functions (kWarm ceiling).
  struct Fn {
    faas::FunctionId id = 0;
    bool ull = false;
  };
  std::vector<Fn> functions;
  for (std::size_t i = 0; i < options.functions; ++i) {
    const bool ull = (i % 2) == 0;
    const auto id = platform.registry().add(make_spec(i, ull));
    if (!id) {
      std::cerr << "register failed: " << id.status().to_report() << "\n";
      return 1;
    }
    functions.push_back({*id, ull});
    if (!platform.provision(*id, options.provision).is_ok() ||
        !platform.ensure_snapshot(*id).is_ok()) {
      std::cerr << "provision failed for function " << *id << "\n";
      return 1;
    }
  }

  // Closed-loop submit threads over disjoint function sets.
  const std::size_t threads = std::min(options.threads, functions.size());
  std::vector<std::jthread> submitters;
  const util::Nanos started = util::monotonic_now();
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&platform, &functions, &options, t, threads] {
      // Thread t owns functions {t, t+T, t+2T, ...}: disjoint shards.
      std::vector<const Fn*> mine;
      for (std::size_t j = t; j < functions.size(); j += threads) {
        mine.push_back(&functions[j]);
      }
      for (std::size_t i = 0; i < options.per_thread; ++i) {
        const Fn& fn = *mine[i % mine.size()];
        const faas::StartMode mode =
            mix_mode(i, mine.size(), fn.ull, /*restores=*/true);
        const auto record =
            platform.invoke(fn.id, fn.ull ? packet_request() : filter_request(),
                            mode);
        (void)record;  // failures are counted by the platform
      }
    });
  }
  submitters.clear();  // join
  const double wall_seconds =
      static_cast<double>(util::monotonic_now() - started) / 1e9;

  const faas::PlatformCounters counters = platform.counters();
  // One consistent control-plane snapshot: the shard contention, the
  // ull-manager contention, and the reserved-queue occupancy in a single
  // reported row all describe the same instant.
  const faas::ControlPlaneSnapshot plane = platform.control_plane_snapshot();
  std::size_t ull_paused = 0;
  for (const auto& queue : plane.ull.occupancy) {
    ull_paused += queue.paused;
  }
  const double inv_per_sec =
      wall_seconds > 0.0
          ? static_cast<double>(counters.invocations) / wall_seconds
          : 0.0;

  // Fast-path cycle accounting, aggregated across the sharded engines
  // (PR 10): p99 of whole-resume TSC cycles, 0 when cycle timing is off
  // or no HORSE resume ran.
  metrics::Histogram resume_cycles;
  for (const auto& engine : platform.horse_engines()) {
    resume_cycles.merge(engine->cycle_stats().total_cycles);
  }
  const double resume_cycles_p99 =
      static_cast<double>(resume_cycles.p99());

  metrics::TextTable table(
      "Macro: closed-loop control-plane throughput",
      {"threads", "invocations", "wall (s)", "inv/s", "cold", "restore",
       "warm", "horse", "failed", "shard contended", "ull contended",
       "ull paused", "resume cycles p99"});
  table.add_row({std::to_string(threads), std::to_string(counters.invocations),
                 metrics::format_double(wall_seconds, 3),
                 metrics::format_double(inv_per_sec, 1),
                 std::to_string(counters.cold),
                 std::to_string(counters.restore),
                 std::to_string(counters.warm),
                 std::to_string(counters.horse),
                 std::to_string(counters.failed),
                 metrics::format_double(
                     plane.shard_contention.contended_fraction(), 4),
                 metrics::format_double(
                     plane.ull.contention.contended_fraction(), 4),
                 std::to_string(ull_paused),
                 metrics::format_double(resume_cycles_p99, 0)});
  table.print(std::cout);

  if (!options.csv_path.empty()) {
    metrics::CsvWriter csv(
        {"threads", "invocations", "wall_seconds", "inv_per_sec", "cold",
         "restore", "warm", "horse", "failed", "shard_contended_fraction",
         "ull_contended_fraction", "ull_paused", "resume_cycles_p99"});
    csv.add_numeric_row({static_cast<double>(threads),
                         static_cast<double>(counters.invocations),
                         wall_seconds, inv_per_sec,
                         static_cast<double>(counters.cold),
                         static_cast<double>(counters.restore),
                         static_cast<double>(counters.warm),
                         static_cast<double>(counters.horse),
                         static_cast<double>(counters.failed),
                         plane.shard_contention.contended_fraction(),
                         plane.ull.contention.contended_fraction(),
                         static_cast<double>(ull_paused),
                         resume_cycles_p99});
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
      return 1;
    }
  }

  // Closed-loop sanity: every submitted invocation must be accounted for.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(threads) * options.per_thread;
  if (counters.invocations + counters.failed != expected) {
    std::cerr << "accounting mismatch: " << counters.invocations << " ok + "
              << counters.failed << " failed != " << expected << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Cluster path (--hosts N): the E18 policy × dispatch-mode matrix cell.
// ---------------------------------------------------------------------------

struct ClusterFn {
  faas::FunctionId id = 0;
  bool ull = false;
};

/// Shared cluster setup for the smoke run and the overload sweep: build
/// the scheduler and register/provision the function fleet. Function 0 is
/// the hot uLL function the skewed mix hammers; the rest alternate
/// uLL/plain as in single-host mode. Returns 0 on success.
int setup_cluster(const Options& options,
                  std::optional<cluster::ClusterScheduler>& cluster_storage,
                  std::vector<ClusterFn>& functions) {
  cluster::ClusterConfig config;
  config.num_hosts = options.hosts;
  config.workers_per_host = options.workers_per_host;
  config.dispatch = options.dispatch;
  config.policy = options.policy;
  config.admission.enabled = options.admission;
  config.platform.num_cpus = options.cpus;
  config.platform.horse.num_ull_runqueues = options.ull_queues;
  config.platform.seed = options.seed;
  // The skewed mix cold-starts one function in volume; parked sandboxes
  // beyond the cap would fail the park and pollute the outcome counts.
  config.platform.warm_pool.max_per_function = 1 << 16;
  if (options.kill || options.crash_sweep) {
    // Failure-detector timing tuned for a bench run: a crashed host is
    // declared dead within ~1 ms and probed every few hundred µs, so
    // the restart window (--restart-after-us) dominates the measured
    // recovery time instead of detector defaults sized for production.
    config.health.lease_duration = 500 * util::kMicrosecond;
    config.health.missed_to_death = 2;
    config.health.sweep_period = 200 * util::kMicrosecond;
    config.health.probe_backoff_base = 200 * util::kMicrosecond;
    config.health.probe_backoff_cap = 2 * util::kMillisecond;
    // Rehydrate every function the keep-alive policy remembers: the
    // sweep's gate compares post-failover warm hits against the
    // --no-rehydrate baseline, so the treatment arm should cover the
    // whole working set.
    config.health.rehydrate_top_k =
        options.rehydrate ? std::max<std::size_t>(2, options.functions) : 0;
    config.health.rehydrate_per_function = 1;
  }

  try {
    cluster_storage.emplace(config);
  } catch (const std::exception& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }
  cluster::ClusterScheduler& sched = *cluster_storage;

  functions.clear();
  for (std::size_t i = 0; i < std::max<std::size_t>(2, options.functions);
       ++i) {
    const bool ull = (i % 2) == 0;
    const auto id =
        sched.register_function([i, ull] { return make_spec(i, ull); });
    if (!id) {
      std::cerr << "register failed: " << id.status().to_report() << "\n";
      return 1;
    }
    functions.push_back({*id, ull});
    if (!sched.provision(*id, options.provision).is_ok() ||
        !sched.ensure_snapshot(*id).is_ok()) {
      std::cerr << "provision failed for function " << *id << "\n";
      return 1;
    }
  }
  return 0;
}

int run_cluster(const Options& options) {
  std::optional<cluster::ClusterScheduler> cluster_storage;
  std::vector<ClusterFn> functions;
  if (const int rc = setup_cluster(options, cluster_storage, functions);
      rc != 0) {
    return rc;
  }
  cluster::ClusterScheduler& sched = *cluster_storage;

  const util::Nanos deadline_rel =
      static_cast<util::Nanos>(options.deadline_us) * util::kMicrosecond;
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  std::vector<std::jthread> submitters;
  const util::Nanos started = util::monotonic_now();
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&sched, &functions, &options, deadline_rel, t] {
      util::Xoshiro256 rng(options.seed + t * 1000003ULL);
      // Absolute deadline = submit instant + the requested slack; 0 keeps
      // the legacy no-deadline path (never shed, never expired).
      const auto deadline = [deadline_rel]() -> util::Nanos {
        return deadline_rel == 0 ? 0 : util::monotonic_now() + deadline_rel;
      };
      for (std::size_t i = 0; i < options.per_thread; ++i) {
        if (options.skew) {
          // The 90/10 shape: 90% tiny kHorse resumes of the hot uLL
          // function, 10% cold starts of a plain function — orders of
          // magnitude slower, the head-of-line blockers push suffers.
          if (rng.uniform01() < 0.9) {
            sched.submit(functions[0].id, packet_request(),
                         faas::StartMode::kHorse, deadline());
          } else {
            sched.submit(functions[1].id, filter_request(),
                         faas::StartMode::kCold, deadline());
          }
        } else {
          const ClusterFn& fn = functions[(t + i) % functions.size()];
          const faas::StartMode mode =
              mix_mode(t + i, functions.size(), fn.ull, /*restores=*/false);
          sched.submit(fn.id, fn.ull ? packet_request() : filter_request(),
                       mode, deadline());
        }
      }
    });
  }
  submitters.clear();  // join
  const auto outcomes = sched.drain();
  const double wall_seconds =
      static_cast<double>(util::monotonic_now() - started) / 1e9;

  std::uint64_t failed = 0;
  std::uint64_t met = 0;
  std::uint64_t late = 0;
  metrics::Histogram cluster_queueing;
  for (const auto& outcome : outcomes) {
    failed += outcome.status.is_ok() ? 0 : 1;
    cluster_queueing.record(outcome.queueing);
    if (deadline_rel != 0 && outcome.status.is_ok()) {
      // A completion met its deadline when queueing + init + execution
      // fit inside the slack it was submitted with.
      const util::Nanos finish_rel = outcome.queueing +
                                     outcome.record.init_time +
                                     outcome.record.exec_time;
      (finish_rel <= deadline_rel ? met : late)++;
    }
  }
  const cluster::ClusterStats stats = sched.stats();
  std::uint64_t breaker_opens = 0;
  for (std::size_t i = 0; i < sched.num_hosts(); ++i) {
    breaker_opens += sched.host(i).platform().counters().breaker_opens;
  }
  const double inv_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(outcomes.size()) / wall_seconds
                         : 0.0;

  const std::string title =
      "Macro: cluster throughput, hosts=" + std::to_string(options.hosts) +
      " policy=" + std::string(cluster::to_string(options.policy)) +
      " dispatch=" + std::string(cluster::to_string(options.dispatch)) +
      (options.skew ? " (skewed 90/10)" : "");
  metrics::TextTable table(
      title, {"host", "dispatched", "completed", "expired", "decisions",
              "queued", "pool sb", "ull paused", "disp p50", "disp p99"});
  for (const cluster::HostStats& host : stats.hosts) {
    table.add_row(
        {std::to_string(host.host), std::to_string(host.dispatched),
         std::to_string(host.completed), std::to_string(host.expired),
         std::to_string(host.policy_decisions),
         std::to_string(host.queued), std::to_string(host.pool_sandboxes),
         std::to_string(host.ull_paused),
         metrics::format_nanos(static_cast<double>(host.dispatch_latency.p50())),
         metrics::format_nanos(
             static_cast<double>(host.dispatch_latency.p99()))});
  }
  table.print(std::cout);
  std::cout << "cluster: " << outcomes.size() << " invocations ("
            << failed << " failed) in "
            << metrics::format_double(wall_seconds, 3) << " s = "
            << metrics::format_double(inv_per_sec, 1)
            << " inv/s; dispatch p50 "
            << metrics::format_nanos(
                   static_cast<double>(cluster_queueing.p50()))
            << ", p99 "
            << metrics::format_nanos(
                   static_cast<double>(cluster_queueing.p99()))
            << "; redispatched " << stats.counters.redispatched
            << ", drops " << stats.counters.dispatch_drops
            << "; shed " << stats.counters.shed << " (queue-full "
            << stats.counters.shed_queue_full << "), expired "
            << stats.counters.expired << ", breaker opens "
            << breaker_opens;
  if (deadline_rel != 0) {
    std::cout << "; deadline " << options.deadline_us << " us: " << met
              << " met, " << late << " late";
  }
  std::cout << "\n";

  if (!options.csv_path.empty()) {
    // One row per host plus an aggregate row (host = -1): the E18 matrix
    // joins these CSVs across (policy, dispatch) cells.
    metrics::CsvWriter csv(
        {"hosts", "policy", "dispatch", "skew", "host", "dispatched",
         "completed", "decisions", "pool_sandboxes", "ull_paused",
         "dispatch_p50_ns", "dispatch_p99_ns", "wall_seconds",
         "inv_per_sec", "failed", "deadline_us", "met_deadline", "late",
         "shed", "shed_queue_full", "expired", "breaker_opens"});
    const auto policy_name = std::string(cluster::to_string(options.policy));
    const auto dispatch_name =
        std::string(cluster::to_string(options.dispatch));
    for (const cluster::HostStats& host : stats.hosts) {
      // Shed / deadline accounting is cluster-level (the front door refuses
      // before a host is chosen), so per-host rows carry only their own
      // expiry count; the aggregate row (host = -1) has the rest.
      csv.add_row({std::to_string(options.hosts), policy_name, dispatch_name,
                   options.skew ? "1" : "0", std::to_string(host.host),
                   std::to_string(host.dispatched),
                   std::to_string(host.completed),
                   std::to_string(host.policy_decisions),
                   std::to_string(host.pool_sandboxes),
                   std::to_string(host.ull_paused),
                   std::to_string(host.dispatch_latency.p50()),
                   std::to_string(host.dispatch_latency.p99()),
                   metrics::format_double(wall_seconds, 6),
                   metrics::format_double(inv_per_sec, 2),
                   std::to_string(failed),
                   std::to_string(options.deadline_us), "0", "0", "0", "0",
                   std::to_string(host.expired), "0"});
    }
    csv.add_row({std::to_string(options.hosts), policy_name, dispatch_name,
                 options.skew ? "1" : "0", "-1",
                 std::to_string(outcomes.size()),
                 std::to_string(stats.counters.completed),
                 std::to_string(stats.counters.submitted), "0", "0",
                 std::to_string(cluster_queueing.p50()),
                 std::to_string(cluster_queueing.p99()),
                 metrics::format_double(wall_seconds, 6),
                 metrics::format_double(inv_per_sec, 2),
                 std::to_string(failed),
                 std::to_string(options.deadline_us), std::to_string(met),
                 std::to_string(late), std::to_string(stats.counters.shed),
                 std::to_string(stats.counters.shed_queue_full),
                 std::to_string(stats.counters.expired),
                 std::to_string(breaker_opens)});
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
      return 1;
    }
  }

  const std::uint64_t expected =
      static_cast<std::uint64_t>(threads) * options.per_thread;
  if (outcomes.size() != expected) {
    std::cerr << "accounting mismatch: " << outcomes.size()
              << " outcomes != " << expected << " submissions\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Overload sweep (--overload-sweep): calibrate capacity, then measure
// goodput at {0.8x, 1.2x, 2.0x} offered load with per-request deadlines.
// ---------------------------------------------------------------------------

struct SweepRow {
  double load = 0.0;            // offered load as a fraction of capacity
  double offered_per_sec = 0.0;
  /// What the pacing threads actually delivered (submitted / submit
  /// phase): sleep granularity can cap the achievable rate, and the gate
  /// is only meaningful relative to what was really offered.
  double achieved_per_sec = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // OK outcomes (includes late ones)
  std::uint64_t met = 0;        // completed within the deadline slack
  std::uint64_t late = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t expired = 0;
  std::uint64_t breaker_opens = 0;
  double wall_seconds = 0.0;
  double goodput_per_sec = 0.0;  // met / wall
  std::int64_t queueing_p50 = 0;
  std::int64_t queueing_p99 = 0;
};

/// One sweep run: a fresh cluster (clean EWMAs, breakers, counters)
/// driven open-loop at `rate_per_sec` (0 = closed loop, the calibration
/// shape) with per-submission deadline slack `deadline_rel` (0 = none).
int run_one_load(const Options& options, double rate_per_sec,
                 util::Nanos deadline_rel, SweepRow& row) {
  std::optional<cluster::ClusterScheduler> cluster_storage;
  std::vector<ClusterFn> functions;
  if (const int rc = setup_cluster(options, cluster_storage, functions);
      rc != 0) {
    return rc;
  }
  cluster::ClusterScheduler& sched = *cluster_storage;

  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  // Open-loop pacing: each thread owns an absolute submission schedule at
  // rate/threads so a slow submit() cannot silently lower the offered
  // load (the next slot is start + i*interval, not now + interval).
  const util::Nanos interval =
      rate_per_sec > 0.0 ? static_cast<util::Nanos>(
                               1e9 * static_cast<double>(threads) /
                               rate_per_sec)
                         : 0;
  std::vector<std::jthread> submitters;
  const util::Nanos started = util::monotonic_now();
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back(
        [&sched, &functions, &options, deadline_rel, interval, t] {
          const util::Nanos thread_start = util::monotonic_now();
          for (std::size_t i = 0; i < options.per_thread; ++i) {
            if (interval > 0) {
              // One sleep toward the absolute slot, no spinning: a spin
              // wait would starve the worker threads on small machines
              // and inflate queueing. A late wake self-corrects — the
              // following slots are already due, so the thread submits
              // straight through until it catches the schedule back up.
              const util::Nanos target =
                  thread_start + static_cast<util::Nanos>(i) * interval;
              const util::Nanos now = util::monotonic_now();
              if (now < target) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(target - now));
              }
            }
            const ClusterFn& fn = functions[(t + i) % functions.size()];
            const faas::StartMode mode = mix_mode(
                t + i, functions.size(), fn.ull, /*restores=*/false);
            const util::Nanos deadline =
                deadline_rel == 0 ? 0 : util::monotonic_now() + deadline_rel;
            sched.submit(fn.id, fn.ull ? packet_request() : filter_request(),
                         mode, deadline);
          }
        });
  }
  submitters.clear();  // join
  const double submit_seconds =
      static_cast<double>(util::monotonic_now() - started) / 1e9;
  const auto outcomes = sched.drain();
  const double wall_seconds =
      static_cast<double>(util::monotonic_now() - started) / 1e9;

  metrics::Histogram queueing;
  row = SweepRow{};
  row.offered_per_sec = rate_per_sec;
  row.submitted = outcomes.size();
  row.achieved_per_sec =
      submit_seconds > 0.0
          ? static_cast<double>(outcomes.size()) / submit_seconds
          : 0.0;
  row.wall_seconds = wall_seconds;
  for (const auto& outcome : outcomes) {
    queueing.record(outcome.queueing);
    if (outcome.status.is_ok()) {
      ++row.completed;
      if (deadline_rel != 0) {
        const util::Nanos finish_rel = outcome.queueing +
                                       outcome.record.init_time +
                                       outcome.record.exec_time;
        (finish_rel <= deadline_rel ? row.met : row.late)++;
      }
    }
  }
  const cluster::ClusterCounters counters = sched.counters();
  row.shed = counters.shed;
  row.shed_queue_full = counters.shed_queue_full;
  row.expired = counters.expired;
  for (std::size_t i = 0; i < sched.num_hosts(); ++i) {
    row.breaker_opens +=
        sched.host(i).platform().counters().breaker_opens;
  }
  // Calibration (no deadline): goodput IS throughput.
  const std::uint64_t good = deadline_rel == 0 ? row.completed : row.met;
  row.goodput_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(good) / wall_seconds : 0.0;
  row.queueing_p50 = queueing.p50();
  row.queueing_p99 = queueing.p99();

  if (outcomes.size() !=
      static_cast<std::uint64_t>(threads) * options.per_thread) {
    std::cerr << "accounting mismatch: " << outcomes.size() << " outcomes != "
              << threads * options.per_thread << " submissions\n";
    return 1;
  }
  return 0;
}

int run_overload_sweep(const Options& options) {
  const util::Nanos deadline_rel =
      static_cast<util::Nanos>(options.deadline_us) * util::kMicrosecond;

  // Phase 1 — calibrate: closed-loop, no deadlines, no pacing. The
  // completion rate of this run is the cluster's capacity; sweep loads
  // are offered relative to it, so the same flags mean the same relative
  // overload on any machine (including sanitizer builds).
  SweepRow capacity_row;
  if (const int rc = run_one_load(options, 0.0, 0, capacity_row); rc != 0) {
    return rc;
  }
  const double capacity = capacity_row.goodput_per_sec;
  if (capacity <= 0.0) {
    std::cerr << "calibration produced zero throughput\n";
    return 1;
  }
  std::cout << "calibrated capacity: " << metrics::format_double(capacity, 1)
            << " inv/s (closed loop, " << capacity_row.submitted
            << " invocations, admission "
            << (options.admission ? "on" : "off") << ")\n";

  // Phase 2 — the sweep: below saturation, just past it, and 2x.
  const double loads[] = {0.8, 1.2, 2.0};
  std::vector<SweepRow> rows;
  for (const double load : loads) {
    SweepRow row;
    if (const int rc = run_one_load(options, load * capacity, deadline_rel,
                                    row);
        rc != 0) {
      return rc;
    }
    row.load = load;
    rows.push_back(row);
  }

  metrics::TextTable table(
      "Macro: overload sweep, hosts=" + std::to_string(options.hosts) +
          " deadline=" + std::to_string(options.deadline_us) + "us" +
          (options.admission ? "" : " (admission OFF)"),
      {"load", "offered/s", "achieved/s", "submitted", "completed", "met",
       "late", "shed", "expired", "breaker", "goodput/s", "queue p99"});
  for (const SweepRow& row : rows) {
    table.add_row({metrics::format_double(row.load, 1),
                   metrics::format_double(row.offered_per_sec, 1),
                   metrics::format_double(row.achieved_per_sec, 1),
                   std::to_string(row.submitted),
                   std::to_string(row.completed), std::to_string(row.met),
                   std::to_string(row.late), std::to_string(row.shed),
                   std::to_string(row.expired),
                   std::to_string(row.breaker_opens),
                   metrics::format_double(row.goodput_per_sec, 1),
                   metrics::format_nanos(
                       static_cast<double>(row.queueing_p99))});
  }
  table.print(std::cout);

  if (!options.csv_path.empty()) {
    metrics::CsvWriter csv(
        {"hosts", "policy", "dispatch", "admission", "deadline_us",
         "load_factor", "offered_per_sec", "achieved_per_sec", "submitted",
         "completed", "met_deadline", "late", "shed", "shed_queue_full",
         "expired", "breaker_opens", "goodput_per_sec", "wall_seconds",
         "queueing_p50_ns", "queueing_p99_ns"});
    const auto policy_name = std::string(cluster::to_string(options.policy));
    const auto dispatch_name =
        std::string(cluster::to_string(options.dispatch));
    for (const SweepRow& row : rows) {
      csv.add_row({std::to_string(options.hosts), policy_name, dispatch_name,
                   options.admission ? "1" : "0",
                   std::to_string(options.deadline_us),
                   metrics::format_double(row.load, 2),
                   metrics::format_double(row.offered_per_sec, 2),
                   metrics::format_double(row.achieved_per_sec, 2),
                   std::to_string(row.submitted),
                   std::to_string(row.completed), std::to_string(row.met),
                   std::to_string(row.late), std::to_string(row.shed),
                   std::to_string(row.shed_queue_full),
                   std::to_string(row.expired),
                   std::to_string(row.breaker_opens),
                   metrics::format_double(row.goodput_per_sec, 2),
                   metrics::format_double(row.wall_seconds, 6),
                   std::to_string(row.queueing_p50),
                   std::to_string(row.queueing_p99)});
    }
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
      return 1;
    }
  }

  // The graceful-degradation gate (admission runs only): goodput collapse
  // under overload is monotone in load, so the deepest-overload row is
  // the one that tells the story — it must hold >= 90% of the sweep's
  // peak goodput. Shedding early is only a win if the refused work
  // actually protects the work that was admitted.
  if (options.admission && !rows.empty()) {
    double peak = 0.0;
    for (const SweepRow& row : rows) {
      peak = std::max(peak, row.goodput_per_sec);
    }
    const SweepRow& deepest = rows.back();
    if (peak > 0.0 && deepest.goodput_per_sec < 0.9 * peak) {
      std::cerr << "overload gate FAILED: goodput at " << deepest.load
                << "x load is "
                << metrics::format_double(deepest.goodput_per_sec, 1)
                << " inv/s, below 90% of the sweep peak ("
                << metrics::format_double(peak, 1) << " inv/s)\n";
      return 1;
    }
    std::cout << "overload gate passed: goodput at "
              << metrics::format_double(deepest.load, 1)
              << "x load held >= 90% of the sweep peak\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Crash recovery (--kill-host / --crash-sweep): the E20 driver.
// ---------------------------------------------------------------------------

struct CrashRow {
  bool rehydrate = false;
  std::uint64_t submitted = 0;      // phase-1 + phase-2
  std::uint64_t outcomes = 0;       // drain() results (completions + sheds)
  std::uint64_t completed_ok = 0;
  std::uint64_t lost = 0;           // submitted - outcomes (must be 0)
  std::uint64_t double_executed = 0;  // duplicate idempotency keys (must be 0)
  cluster::ClusterCounters counters;
  double detection_ms = 0.0;   // crash() -> declared dead
  double recovery_ms = 0.0;    // crash() -> rejoined rotation
  std::uint64_t victim_invocations = 0;  // phase-2 serves on the killed host
  std::uint64_t victim_warm_hits = 0;    // ... at kWarm or kHorse
  double warm_hit_rate = 0.0;
  double wall_seconds = 0.0;
};

/// One crash/recover run: phase-1 traffic with a mid-run host kill, a
/// timed restart, a rejoin wait, then a phase-2 burst whose warm-hit
/// rate on the killed host isolates what rejoin rehydration bought.
int run_crash_once(const Options& options, bool rehydrate, CrashRow& row) {
  Options local = options;
  local.rehydrate = rehydrate;
  std::optional<cluster::ClusterScheduler> cluster_storage;
  std::vector<ClusterFn> functions;
  if (const int rc = setup_cluster(local, cluster_storage, functions);
      rc != 0) {
    return rc;
  }
  cluster::ClusterScheduler& sched = *cluster_storage;

  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  const std::uint64_t phase1 =
      static_cast<std::uint64_t>(threads) * options.per_thread;
  const std::uint64_t kill_after =
      options.kill ? options.kill_after : phase1 / 2;
  const std::size_t victim = options.kill ? options.kill_host : 0;
  const util::Nanos restart_delay =
      static_cast<util::Nanos>(options.restart_after_us) * util::kMicrosecond;

  std::atomic<std::uint64_t> submit_count{0};
  std::atomic<util::Nanos> crashed_at{0};

  // The "operator": once the detector has declared the crashed host
  // dead, schedule the process restart; the scheduler's half-open probes
  // then rejoin the host. A host restarted before it is declared dead is
  // never quarantined, so it could never rejoin. The counters (which take
  // shard locks) are polled only after the crash, not under phase-1
  // traffic.
  std::jthread restarter([&sched, &crashed_at, restart_delay, victim](
                             std::stop_token stop) {
    while (crashed_at.load(std::memory_order_acquire) == 0 ||
           sched.counters().hosts_declared_dead < 1) {
      if (stop.stop_requested()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(restart_delay));
    sched.host(victim).restart();
  });

  const util::Nanos started = util::monotonic_now();
  {
    std::vector<std::jthread> submitters;
    for (std::size_t t = 0; t < threads; ++t) {
      submitters.emplace_back(
          [&sched, &functions, &options, &submit_count, &crashed_at,
           kill_after, victim, t] {
            for (std::size_t i = 0; i < options.per_thread; ++i) {
              const std::uint64_t n =
                  submit_count.fetch_add(1, std::memory_order_relaxed);
              if (n == kill_after) {
                // Kill the host wholesale mid-traffic: queued work will
                // be stolen at declared death, in-flight work finishes
                // as zombies the dedup ledger must suppress.
                sched.host(victim).crash();
                crashed_at.store(util::monotonic_now(),
                                 std::memory_order_release);
              }
              const ClusterFn& fn = functions[(t + i) % functions.size()];
              const faas::StartMode mode = mix_mode(
                  t + i, functions.size(), fn.ull, /*restores=*/false);
              sched.submit(fn.id,
                           fn.ull ? packet_request() : filter_request(), mode,
                           0);
            }
          });
    }
  }  // join phase-1

  const util::Nanos crash_time = crashed_at.load(std::memory_order_acquire);
  if (crash_time == 0) {
    std::cerr << "crash run: the kill never fired\n";
    return 1;
  }

  // Wait for the ladder to complete: declared dead -> restarted ->
  // probed back into rotation. Bounded so a detector regression fails
  // loudly instead of hanging CI.
  const util::Nanos wait_start = util::monotonic_now();
  util::Nanos rejoin_time = 0;
  while (true) {
    if (sched.counters().hosts_rejoined >= 1) {
      rejoin_time = util::monotonic_now();
      break;
    }
    if (util::monotonic_now() - wait_start > 10 * util::kSecond) {
      std::cerr << "crash run: host " << victim
                << " never rejoined within 10 s\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Quiesce phase-1 (drain arithmetic: every submission plus every
  // re-dispatched orphan yields a host outcome or a shed) so zombie
  // completions cannot pollute the phase-2 warm-hit snapshot.
  while (true) {
    const cluster::ClusterCounters c = sched.counters();
    if (c.completed + c.shed >= phase1 + c.orphans_redispatched) {
      break;
    }
    if (util::monotonic_now() - wait_start > 30 * util::kSecond) {
      std::cerr << "crash run: phase-1 never quiesced\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Phase 2: a post-failover burst. The victim's platform counters
  // record the mode each invocation was actually served at, so the
  // delta across this burst IS the post-failover warm-hit rate.
  const faas::PlatformCounters before = sched.host(victim).platform().counters();
  const std::size_t phase2_per_thread =
      std::max<std::size_t>(64, options.per_thread / 8);
  {
    std::vector<std::jthread> submitters;
    for (std::size_t t = 0; t < threads; ++t) {
      submitters.emplace_back(
          [&sched, &functions, phase2_per_thread, t] {
            for (std::size_t i = 0; i < phase2_per_thread; ++i) {
              const ClusterFn& fn = functions[(t + i) % functions.size()];
              sched.submit(fn.id,
                           fn.ull ? packet_request() : filter_request(),
                           fn.ull ? faas::StartMode::kHorse
                                  : faas::StartMode::kWarm,
                           0);
            }
          });
    }
  }  // join phase-2
  const auto outcomes = sched.drain();
  row.wall_seconds =
      static_cast<double>(util::monotonic_now() - started) / 1e9;
  const faas::PlatformCounters after = sched.host(victim).platform().counters();

  row.rehydrate = rehydrate;
  row.submitted =
      phase1 + static_cast<std::uint64_t>(threads) * phase2_per_thread;
  row.outcomes = outcomes.size();
  row.lost =
      row.submitted > outcomes.size() ? row.submitted - outcomes.size() : 0;
  std::vector<std::uint64_t> keys;
  keys.reserve(outcomes.size());
  for (const auto& outcome : outcomes) {
    keys.push_back(outcome.key);
    if (outcome.status.is_ok()) {
      ++row.completed_ok;
    }
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1]) {
      ++row.double_executed;
    }
  }
  row.counters = sched.counters();
  row.detection_ms =
      static_cast<double>(sched.last_detection_latency()) / 1e6;
  row.recovery_ms = static_cast<double>(rejoin_time - crash_time) / 1e6;
  row.victim_invocations = after.invocations - before.invocations;
  row.victim_warm_hits =
      (after.warm + after.horse) - (before.warm + before.horse);
  row.warm_hit_rate =
      row.victim_invocations > 0
          ? static_cast<double>(row.victim_warm_hits) /
                static_cast<double>(row.victim_invocations)
          : 0.0;
  if (row.victim_invocations == 0) {
    std::cerr << "crash run: the rejoined host received no phase-2 traffic "
                 "— the warm-hit comparison is meaningless\n";
    return 1;
  }
  return 0;
}

int report_crash_rows(const Options& options,
                      const std::vector<CrashRow>& rows) {
  metrics::TextTable table(
      "Macro: host-crash recovery, hosts=" + std::to_string(options.hosts) +
          " dispatch=" + std::string(cluster::to_string(options.dispatch)) +
          " restart-after=" + std::to_string(options.restart_after_us) + "us",
      {"rehydrate", "submitted", "outcomes", "ok", "shed", "lost", "dup",
       "detect", "recover", "orphans", "suppressed", "rehydrated sb",
       "victim inv", "warm-hit"});
  for (const CrashRow& row : rows) {
    table.add_row(
        {row.rehydrate ? "on" : "off", std::to_string(row.submitted),
         std::to_string(row.outcomes), std::to_string(row.completed_ok),
         std::to_string(row.counters.shed), std::to_string(row.lost),
         std::to_string(row.double_executed),
         metrics::format_nanos(row.detection_ms * 1e6),
         metrics::format_nanos(row.recovery_ms * 1e6),
         std::to_string(row.counters.orphans_redispatched),
         std::to_string(row.counters.duplicates_suppressed),
         std::to_string(row.counters.rehydrated_sandboxes),
         std::to_string(row.victim_invocations),
         metrics::format_percent(row.warm_hit_rate)});
  }
  table.print(std::cout);
  for (const CrashRow& row : rows) {
    // The recovery accounting next to the latency table, in the shared
    // counter format every fault experiment logs.
    metrics::counters_table(
        std::string("Cluster crash-recovery counters (rehydrate=") +
            (row.rehydrate ? "on)" : "off)"),
        {{"host_crashes", row.counters.host_crashes},
         {"missed_heartbeats", row.counters.missed_heartbeats},
         {"hosts_declared_dead", row.counters.hosts_declared_dead},
         {"probes", row.counters.probes},
         {"hosts_rejoined", row.counters.hosts_rejoined},
         {"backlog_redispatched", row.counters.redispatched},
         {"orphans_redispatched", row.counters.orphans_redispatched},
         {"duplicates_suppressed", row.counters.duplicates_suppressed},
         {"rehydrated_sandboxes", row.counters.rehydrated_sandboxes},
         {"forced_routes", row.counters.forced_routes},
         {"victim_warm_hits", row.victim_warm_hits}})
        .print(std::cout);
  }

  if (!options.csv_path.empty()) {
    metrics::CsvWriter csv(
        {"hosts", "policy", "dispatch", "rehydrate", "restart_after_us",
         "submitted", "outcomes", "completed_ok", "shed", "lost",
         "double_executed", "host_crashes", "missed_heartbeats",
         "hosts_declared_dead", "probes", "hosts_rejoined",
         "orphans_redispatched", "duplicates_suppressed",
         "rehydrated_sandboxes", "forced_routes", "detection_ms",
         "recovery_ms", "victim_invocations", "victim_warm_hits",
         "warm_hit_rate", "wall_seconds"});
    for (const CrashRow& row : rows) {
      csv.add_row(
          {std::to_string(options.hosts),
           std::string(cluster::to_string(options.policy)),
           std::string(cluster::to_string(options.dispatch)),
           row.rehydrate ? "1" : "0",
           std::to_string(options.restart_after_us),
           std::to_string(row.submitted), std::to_string(row.outcomes),
           std::to_string(row.completed_ok),
           std::to_string(row.counters.shed), std::to_string(row.lost),
           std::to_string(row.double_executed),
           std::to_string(row.counters.host_crashes),
           std::to_string(row.counters.missed_heartbeats),
           std::to_string(row.counters.hosts_declared_dead),
           std::to_string(row.counters.probes),
           std::to_string(row.counters.hosts_rejoined),
           std::to_string(row.counters.orphans_redispatched),
           std::to_string(row.counters.duplicates_suppressed),
           std::to_string(row.counters.rehydrated_sandboxes),
           std::to_string(row.counters.forced_routes),
           metrics::format_double(row.detection_ms, 3),
           metrics::format_double(row.recovery_ms, 3),
           std::to_string(row.victim_invocations),
           std::to_string(row.victim_warm_hits),
           metrics::format_double(row.warm_hit_rate, 4),
           metrics::format_double(row.wall_seconds, 6)});
    }
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
      return 1;
    }
  }

  // The exactly-once gate: a crash may shed work (typed) but may never
  // lose a submission or execute one twice.
  for (const CrashRow& row : rows) {
    if (row.lost != 0 || row.double_executed != 0) {
      std::cerr << "crash gate FAILED (rehydrate="
                << (row.rehydrate ? "on" : "off") << "): " << row.lost
                << " lost, " << row.double_executed
                << " double-executed submissions\n";
      return 1;
    }
  }
  std::cout << "crash gate passed: zero lost, zero double-executed across "
            << rows.size() << " run(s)\n";
  return 0;
}

int run_crash_single(const Options& options) {
  CrashRow row;
  if (const int rc = run_crash_once(options, options.rehydrate, row);
      rc != 0) {
    return rc;
  }
  return report_crash_rows(options, {row});
}

int run_crash_sweep(const Options& options) {
  // Treatment arm first (warm rejoin rehydration on), then the
  // --no-rehydrate baseline: same traffic, same kill, same restart.
  CrashRow with_rehydrate;
  if (const int rc = run_crash_once(options, true, with_rehydrate);
      rc != 0) {
    return rc;
  }
  CrashRow baseline;
  if (const int rc = run_crash_once(options, false, baseline); rc != 0) {
    return rc;
  }
  if (const int rc = report_crash_rows(options, {with_rehydrate, baseline});
      rc != 0) {
    return rc;
  }
  // The rehydration gate: warm rejoin must strictly beat the cold
  // baseline on post-failover warm hits, or the subsystem is dead
  // weight.
  if (with_rehydrate.warm_hit_rate <= baseline.warm_hit_rate) {
    std::cerr << "rehydration gate FAILED: post-failover warm-hit rate "
              << metrics::format_percent(with_rehydrate.warm_hit_rate)
              << " (rehydrate) is not above "
              << metrics::format_percent(baseline.warm_hit_rate)
              << " (baseline)\n";
    return 1;
  }
  std::cout << "rehydration gate passed: post-failover warm-hit rate "
            << metrics::format_percent(with_rehydrate.warm_hit_rate)
            << " (rehydrate) > "
            << metrics::format_percent(baseline.warm_hit_rate)
            << " (baseline)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Workflow chains (--chain w1,w2,...): the E21 driver. The same stage list
// is measured three ways on a fresh platform each:
//   * fused         — all-uLL, same sandbox shape: the planner fuses the
//                     whole chain into ONE kHorse resume (one pool take,
//                     one resume prologue, in-sandbox handoff);
//   * unfused       — identical stages, dispatched per hop: every stage
//                     pays its own pool take + resume prologue (what a
//                     chain cost before platform-side fusion);
//   * cross-sandbox — identical stages but mismatched sandbox shapes
//                     (memory grows per stage), so no edge is fusable and
//                     invoke_chain degrades to per-stage segments.
// The gate: fused p99 must be strictly below unfused p99, or fusion is
// dead weight and the run exits non-zero.
// ---------------------------------------------------------------------------

struct ChainStageKind {
  std::string name;
  std::shared_ptr<workloads::Function> (*make)();
};

std::shared_ptr<workloads::Function> make_firewall() {
  return std::make_shared<workloads::FirewallFunction>(256);
}
std::shared_ptr<workloads::Function> make_nat() {
  return std::make_shared<workloads::NatFunction>(64);
}
std::shared_ptr<workloads::Function> make_array_filter() {
  return std::make_shared<workloads::ArrayFilterFunction>();
}

std::vector<ChainStageKind> parse_chain_stages(const std::string& spec) {
  std::vector<ChainStageKind> stages;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string name =
        spec.substr(begin, comma == std::string::npos ? comma : comma - begin);
    if (name == "firewall") {
      stages.push_back({name, &make_firewall});
    } else if (name == "nat") {
      stages.push_back({name, &make_nat});
    } else if (name == "array_filter") {
      stages.push_back({name, &make_array_filter});
    } else {
      std::cerr << "--chain: unknown workload '" << name
                << "' (want firewall|nat|array_filter)\n";
      std::exit(2);
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return stages;
}

/// The packet plus Table 1's Category-3 input: 3000 integers filtered at
/// 775,000, the middle of perfbench's threshold band (~22.5 % kept).
/// Chain i carries array i mod kChainPayloads, each from its own seed, so
/// the data-dependent filter body never runs with a predictor trained on
/// the array it is filtering.
constexpr std::size_t kChainPayloads = 16;

workloads::Request chain_request(std::size_t chain) {
  static const std::vector<std::vector<std::int32_t>> payloads = [] {
    std::vector<std::vector<std::int32_t>> out;
    for (std::uint64_t seed = 0; seed < kChainPayloads; ++seed) {
      out.push_back(workloads::ArrayFilterFunction::default_payload(17 + seed));
    }
    return out;
  }();
  workloads::Request request = packet_request();
  request.payload = payloads[chain % kChainPayloads];
  request.threshold = 775'000;
  return request;
}

struct ChainVariantResult {
  std::string variant;
  std::uint64_t iterations = 0;
  std::uint64_t failed = 0;
  std::uint64_t fused_segments = 0;
  std::uint64_t fallback_stages = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
};

/// One variant on a fresh platform: register the stages (same shape when
/// `same_shape`, growing memory footprints otherwise), provision + snapshot
/// every stage, then time `iterations` end-to-end chain executions.
/// `per_hop` dispatches stage by stage through Platform::invoke (the
/// pre-fusion baseline); otherwise the chain goes through invoke_chain and
/// the planner decides.
int run_chain_variant(const Options& options, const char* variant,
                      const std::vector<ChainStageKind>& kinds,
                      bool same_shape, bool per_hop,
                      ChainVariantResult& result) {
  faas::PlatformConfig config;
  config.num_cpus = options.cpus;
  config.horse.num_ull_runqueues = options.ull_queues;
  std::optional<faas::Platform> platform_storage;
  try {
    platform_storage.emplace(config);
  } catch (const std::exception& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }
  faas::Platform& platform = *platform_storage;

  faas::WorkflowSpec workflow;
  workflow.name = "bench-chain";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    faas::FunctionSpec spec;
    spec.name = std::string(variant) + "-" + kinds[i].name + "-" +
                std::to_string(i);
    spec.implementation = kinds[i].make();
    spec.sandbox.name = spec.name + "-sb";
    spec.sandbox.num_vcpus = 1;
    // Same shape → every adjacent uLL pair fuses; growing footprint →
    // no downstream stage fits the upstream sandbox, planner splits.
    spec.sandbox.memory_mb = same_shape ? 1 : (1u << i);
    spec.sandbox.ull = true;
    const auto id = platform.registry().add(std::move(spec));
    if (!id) {
      std::cerr << "register failed: " << id.status().to_report() << "\n";
      return 1;
    }
    workflow.stages.push_back(*id);
    // The unfused/cross-sandbox variants resume every stage from its own
    // pool; the fused variant only ever takes the entry sandbox, but
    // provisioning all keeps the three platforms identically prepared.
    if (!platform.provision(*id, std::max<std::size_t>(1, options.provision))
             .is_ok() ||
        !platform.ensure_snapshot(*id).is_ok()) {
      std::cerr << "provision failed for stage " << kinds[i].name << "\n";
      return 1;
    }
  }
  const auto workflow_id = platform.registry().add_workflow(workflow);
  if (!workflow_id) {
    std::cerr << "workflow registration failed: "
              << workflow_id.status().to_report() << "\n";
    return 1;
  }
  const faas::WorkflowSpec& spec = **platform.registry().find_workflow(
      *workflow_id);

  const std::size_t warmup = 64;
  const std::size_t iterations = std::max<std::size_t>(1, options.per_thread);
  metrics::Histogram latency;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < warmup + iterations; ++i) {
    const util::Stopwatch watch;
    bool ok = true;
    if (per_hop) {
      // The pre-fusion shape: each hop is its own dispatch (pool take,
      // resume prologue, pause-and-pool), edges applied by the caller.
      workloads::Request request = chain_request(i);
      for (std::size_t hop = 0; hop < spec.stages.size(); ++hop) {
        const auto record = platform.invoke(spec.stages[hop], request,
                                            faas::StartMode::kHorse);
        if (!record) {
          ok = false;
          break;
        }
        if (hop + 1 < spec.stages.size() &&
            !faas::apply_edge(spec.edges[hop], record->response, request)) {
          break;  // gated (never fires for these workloads' requests)
        }
      }
    } else {
      const auto chain = platform.invoke_chain(*workflow_id, chain_request(i),
                                               faas::StartMode::kHorse);
      ok = chain.has_value();
    }
    if (i < warmup) {
      continue;
    }
    if (ok) {
      latency.record(watch.elapsed());
    } else {
      ++failed;
    }
  }

  const faas::PlatformCounters counters = platform.counters();
  result.variant = variant;
  result.iterations = iterations;
  result.failed = failed;
  result.fused_segments = counters.fused_segments;
  result.fallback_stages = counters.chain_fallback_stages;
  result.p50 = latency.p50();
  result.p99 = latency.p99();
  if (failed == iterations) {
    std::cerr << "chain variant '" << variant << "' never completed\n";
    return 1;
  }
  return 0;
}

int run_chain(const Options& options) {
  const std::vector<ChainStageKind> kinds = parse_chain_stages(options.chain);
  if (kinds.size() < 2) {
    std::cerr << "--chain wants at least two stages\n";
    return 2;
  }

  ChainVariantResult fused;
  ChainVariantResult unfused;
  ChainVariantResult cross;
  if (const int rc = run_chain_variant(options, "fused", kinds,
                                       /*same_shape=*/true, /*per_hop=*/false,
                                       fused);
      rc != 0) {
    return rc;
  }
  if (const int rc = run_chain_variant(options, "unfused", kinds,
                                       /*same_shape=*/true, /*per_hop=*/true,
                                       unfused);
      rc != 0) {
    return rc;
  }
  if (const int rc = run_chain_variant(options, "cross-sandbox", kinds,
                                       /*same_shape=*/false,
                                       /*per_hop=*/false, cross);
      rc != 0) {
    return rc;
  }
  // The fused arm must actually have fused (one segment per iteration,
  // none fell back) and the cross-sandbox arm must NOT have.
  if (fused.fused_segments == 0) {
    std::cerr << "chain gate FAILED: the fused variant never produced a "
                 "fused segment (planner split an all-uLL same-shape "
                 "chain)\n";
    return 1;
  }
  if (cross.fused_segments != 0) {
    std::cerr << "chain gate FAILED: the cross-sandbox variant fused "
                 "despite mismatched sandbox shapes\n";
    return 1;
  }

  metrics::TextTable table(
      "Macro: workflow chain [" + options.chain + "], " +
          std::to_string(kinds.size()) + " stages, kHorse",
      {"variant", "iterations", "failed", "fused segs", "fallback stages",
       "p50", "p99"});
  for (const ChainVariantResult* row : {&fused, &unfused, &cross}) {
    table.add_row({row->variant, std::to_string(row->iterations),
                   std::to_string(row->failed),
                   std::to_string(row->fused_segments),
                   std::to_string(row->fallback_stages),
                   metrics::format_nanos(static_cast<double>(row->p50)),
                   metrics::format_nanos(static_cast<double>(row->p99))});
  }
  table.print(std::cout);

  if (!options.csv_path.empty()) {
    metrics::CsvWriter csv({"chain", "stages", "variant", "iterations",
                            "failed", "fused_segments", "fallback_stages",
                            "p50_ns", "p99_ns"});
    for (const ChainVariantResult* row : {&fused, &unfused, &cross}) {
      csv.add_row({options.chain, std::to_string(kinds.size()), row->variant,
                   std::to_string(row->iterations),
                   std::to_string(row->failed),
                   std::to_string(row->fused_segments),
                   std::to_string(row->fallback_stages),
                   std::to_string(row->p50), std::to_string(row->p99)});
    }
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
      return 1;
    }
  }

  // The E21 gate: fusing the chain into one resume must strictly beat
  // per-hop dispatch at the tail, or the fusion path is dead weight.
  if (fused.p99 >= unfused.p99) {
    std::cerr << "chain gate FAILED: fused p99 "
              << metrics::format_nanos(static_cast<double>(fused.p99))
              << " is not strictly below unfused per-hop p99 "
              << metrics::format_nanos(static_cast<double>(unfused.p99))
              << "\n";
    return 1;
  }
  std::cout << "chain gate passed: fused p99 "
            << metrics::format_nanos(static_cast<double>(fused.p99))
            << " < unfused per-hop p99 "
            << metrics::format_nanos(static_cast<double>(unfused.p99))
            << " (cross-sandbox p99 "
            << metrics::format_nanos(static_cast<double>(cross.p99)) << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  if (!options.chain.empty()) {
    return run_chain(options);
  }
  if (options.overload_sweep) {
    return run_overload_sweep(options);
  }
  if (options.crash_sweep) {
    return run_crash_sweep(options);
  }
  if (options.kill) {
    return run_crash_single(options);
  }
  return options.hosts == 0 ? run_single_host(options) : run_cluster(options);
}
