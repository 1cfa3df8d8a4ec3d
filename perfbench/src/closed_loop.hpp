// Closed-loop driver shared by warm_steady and chain_fused: N client
// threads, each sending its next request only after the previous one
// returned. A request's latency runs from the call start to the return of
// its last body (the response instant); re-parking the sandbox afterwards
// is not part of it.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// What a client's call reports back to the driver.
struct ClosedCall {
  Nanos start = 0;           // just before the library call
  Nanos returned = 0;        // just after it
  std::uint64_t allocs = 0;  // allocations inside the call (traced runs)
  bool ok = false;           // status OK and response equal to the oracle's
  horse::faas::StartMode mode = horse::faas::StartMode::kCold;
};

struct ClosedLoopOutput {
  PassStats pass;
  // Traced runs only.
  std::unique_ptr<SpanLog> spans;
  LatencyRecorder horse_start;
  LatencyRecorder warm_start;
  std::uint64_t allocs = 0;
};

/// A window's throughput is what its clients are served back to back:
/// 1 / mean call time per client, summed, with the slowest 1% of calls left
/// out of the mean. On a shared host the hypervisor takes a CPU away for
/// milliseconds at a time, a share that drifts from minute to minute; such
/// a gap lands inside one call of some 20 µs, so it shows in the tail
/// (latency_p99_us) and not here. Counting responses per wall second would
/// instead read the host's load.
inline constexpr double kServedCallShare = 0.99;

/// Run `clients` threads for a 1 s warm-up and then `seconds` of
/// measurement, cut into 0.5 s windows. A single client rotates over the
/// CPUs (CpuRotation). Several clients are left where the scheduler puts
/// them: they hand locks to each other, and a switch that lands one on an
/// idle CPU, which the host must first wake, holds up the others too
/// (rotating warm_steady's two clients made its figures noisier).
/// `call(client, iteration, out)` performs one request; the driver has
/// already pointed the thread's stamp slot at a fresh BodyStamps.
template <typename Call>
ClosedLoopOutput run_closed_loop(std::size_t clients, double seconds,
                                 bool traced, Nanos slo_limit, Call&& call) {
  constexpr Nanos kWarmup = horse::util::kSecond;
  constexpr double kWindowSeconds = 0.5;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  const auto window_ns =
      static_cast<Nanos>(seconds * 1e9 / static_cast<double>(windows));
  struct PerClient {
    PassStats pass;
    std::vector<LoadWindow> load;
    LatencyRecorder window;  // latencies of the window being filled
    LatencyRecorder calls;   // call times of the window being filled
    std::unique_ptr<SpanLog> spans;
    LatencyRecorder horse_start;
    LatencyRecorder warm_start;
    std::uint64_t allocs = 0;
  };
  std::vector<PerClient> per(clients);
  const Nanos begin = now() + kWarmup;
  const Nanos end = begin + static_cast<Nanos>(windows) * window_ns;
  std::vector<Nanos> cpu(windows + 1);
  set_alloc_counting(traced);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      per[c].load.resize(windows);
      if (traced) {
        // Keep the spans of 1 request in 256 for export.
        per[c].spans = std::make_unique<SpanLog>(256);
      }
      threads.emplace_back([&, c] {
        PerClient& mine = per[c];
        BodyStamps stamps;
        StampBoard::set_thread_slot(&stamps);
        CpuRotation rotation(clients == 1);
        rotation.follow(now());
        std::size_t open = 0;
        const auto close_until = [&](std::size_t w) {
          for (; open < w; ++open) {
            if (mine.window.count() > 0) {
              mine.pass.latency_windows.push_back(
                  LatencyWindow::of(mine.window));
              mine.load[open].rps =
                  1e9 / mine.calls.trimmed_mean(kServedCallShare);
            }
            mine.window.clear();
            mine.calls.clear();
          }
        };
        for (std::uint64_t i = 0;; ++i) {
          stamps.reset();
          ClosedCall out;
          call(c, i, out);
          rotation.follow(out.start);
          if (out.start >= end) {
            break;
          }
          if (out.start < begin) {
            continue;
          }
          const auto w =
              static_cast<std::size_t>((out.start - begin) / window_ns);
          close_until(w);
          LoadWindow& load = mine.load[w];
          ++load.attempted;
          ++mine.pass.attempted;
          if (!out.ok || stamps.count == 0) {
            ++mine.pass.failed;
            continue;
          }
          ++load.ok;
          ++mine.pass.ok;
          const Nanos latency = stamps.last_end() - out.start;
          mine.pass.latency.record(latency);
          mine.window.record(latency);
          mine.calls.record(out.returned - out.start);
          if (latency <= slo_limit) {
            ++load.slo_met;
          }
          if (!traced) {
            continue;
          }
          mine.allocs += out.allocs;
          const Nanos start_cost = stamps.first_start() - out.start;
          if (out.mode == horse::faas::StartMode::kHorse) {
            mine.horse_start.record(start_cost);
          } else if (out.mode == horse::faas::StartMode::kWarm) {
            mine.warm_start.record(start_cost);
          }
          // Children tile the request: start, then each body with the hop
          // between consecutive bodies, then the re-park.
          std::array<Span, 2 * BodyStamps::kMaxBodies + 1> children{};
          std::size_t n = 0;
          children[n++] = {Layer::kFaasStart, out.start, stamps.first_start()};
          for (int b = 0; b < stamps.count; ++b) {
            const auto bi = static_cast<std::size_t>(b);
            if (b > 0) {
              children[n++] = {Layer::kFaasHop, stamps.end[bi - 1],
                               stamps.start[bi]};
            }
            children[n++] = {Layer::kWorkloadsBody, stamps.start[bi],
                             stamps.end[bi]};
          }
          children[n++] = {Layer::kFaasRepark, stamps.last_end(),
                           out.returned};
          mine.spans->add((static_cast<std::uint64_t>(c) << 40) | i,
                          {Layer::kRequest, out.start, out.returned},
                          children.data(), n);
        }
        close_until(windows);
        StampBoard::set_thread_slot(nullptr);
      });
    }
    for (std::size_t w = 0; w <= windows; ++w) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(begin + static_cast<Nanos>(w) * window_ns)));
      cpu[w] = process_cpu();
    }
    threads.clear();  // join
  }
  set_alloc_counting(false);

  ClosedLoopOutput out;
  out.pass.load_windows.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    out.pass.load_windows[w].cpu_ns = cpu[w + 1] - cpu[w];
  }
  if (traced) {
    out.spans = std::make_unique<SpanLog>(256);
  }
  for (PerClient& mine : per) {
    out.pass.latency.merge(mine.pass.latency);
    out.pass.latency_windows.insert(out.pass.latency_windows.end(),
                                    mine.pass.latency_windows.begin(),
                                    mine.pass.latency_windows.end());
    for (std::size_t w = 0; w < windows; ++w) {
      out.pass.load_windows[w].attempted += mine.load[w].attempted;
      out.pass.load_windows[w].ok += mine.load[w].ok;
      out.pass.load_windows[w].slo_met += mine.load[w].slo_met;
      out.pass.load_windows[w].rps += mine.load[w].rps;
    }
    out.pass.attempted += mine.pass.attempted;
    out.pass.ok += mine.pass.ok;
    out.pass.failed += mine.pass.failed;
    if (traced) {
      out.spans->merge(*mine.spans);
      out.horse_start.merge(mine.horse_start);
      out.warm_start.merge(mine.warm_start);
      out.allocs += mine.allocs;
    }
  }
  return out;
}

/// The measurement shared by the closed-loop workloads. Untraced runs
/// measure `seconds` and report the end-to-end metrics; traced runs measure
/// an untraced and a traced half and report the per-layer metrics.
/// `pass(traced, seconds)` runs one run_closed_loop pass on `platform`.
template <typename Pass>
void measure_closed_loop(const Options& options, const std::string& workload,
                         double setup_s, horse::faas::Platform& platform,
                         Result& result, Pass&& pass) {
  if (!options.trace) {
    const ClosedLoopOutput untraced = pass(false, options.seconds);
    result.attempted = untraced.pass.attempted;
    result.failed = untraced.pass.failed;
    report_end_to_end(untraced.pass, result);
    result.set("setup_s", setup_s, "s");
  } else {
    const ClosedLoopOutput untraced = pass(false, options.seconds / 2);
    const ClosedLoopOutput traced = pass(true, options.seconds / 2);
    result.attempted = untraced.pass.attempted + traced.pass.attempted;
    result.failed = untraced.pass.failed + traced.pass.failed;
    PlatformTotals totals;
    totals.add(platform);
    report_per_layer(totals, *traced.spans, traced.horse_start,
                     traced.warm_start, LatencyRecorder{},
                     traced.pass.ok == 0
                         ? 0.0
                         : static_cast<double>(traced.allocs) /
                               static_cast<double>(traced.pass.ok),
                     result);
    result.set("bench.trace_overhead_frac",
               trace_overhead(untraced.pass, traced.pass), "ratio");
    write_spans(options, workload, *traced.spans);
  }
  if (result.failed != 0) {
    result.violate(std::to_string(result.failed) +
                   " requests failed or answered wrongly");
  }
  check_platform_accounting(platform, workload, result);
}

}  // namespace perfbench
