// Shared pieces of the repository benchmark: options, the timing wrapper
// around each workload body, the correctness oracle, exact latency
// recorders, request spans, process resource readings and the result line.
//
// The benchmark drives the library only through its public API
// (ClusterScheduler, Platform, FunctionRegistry, workloads::Function). Every
// per-layer number is taken from outside: wall time around public calls,
// stamps taken by StampedFunction when a body starts and returns, and the
// library's public stats accessors.
#pragma once

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faas/platform.hpp"
#include "util/time.hpp"
#include "workloads/firewall.hpp"
#include "workloads/function.hpp"

namespace perfbench {

using horse::util::Nanos;

[[nodiscard]] inline Nanos now() noexcept {
  return horse::util::monotonic_now();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt every Nth body response inside the wrapper (0 = never). Used by
  /// the self-test to prove the oracle catches a wrong response.
  std::uint64_t inject_wrong_every = 0;
  /// Directory the traced run writes its span file into.
  std::string out_dir = "perfbench/build/spans";
};

// ---------------------------------------------------------------------------
// Heap-allocation counting (alloc_count.cpp). Counts only while enabled, so
// untraced runs pay one relaxed load per allocation and nothing else.
// ---------------------------------------------------------------------------

void set_alloc_counting(bool enabled) noexcept;
/// Allocations made by the calling thread while counting was enabled.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;
/// Allocations made by every thread while counting was enabled.
[[nodiscard]] std::uint64_t total_allocs() noexcept;

// ---------------------------------------------------------------------------
// Body stamps and the wrapper that takes them.
// ---------------------------------------------------------------------------

/// Start/return instants of every body one request ran (a fused chain runs
/// several bodies for one request).
struct BodyStamps {
  static constexpr int kMaxBodies = 4;
  int count = 0;
  std::array<Nanos, kMaxBodies> start{};
  std::array<Nanos, kMaxBodies> end{};

  void reset() noexcept { count = 0; }
  [[nodiscard]] Nanos first_start() const noexcept { return start[0]; }
  [[nodiscard]] Nanos last_end() const noexcept { return end[count - 1]; }
};

/// Where the wrapper finds the stamp slot of the request it is running.
enum class TagField : std::uint8_t {
  /// The calling thread's current slot (closed loop: the client thread runs
  /// the body itself, inside Platform::invoke / invoke_chain).
  kThread,
  /// Request::threshold holds the slot index (NAT and firewall ignore it).
  kThreshold,
  /// Request::header holds the slot index in decimal (array-filter ignores
  /// it).
  kHeader,
};

/// Stamp slots shared by the wrappers of one platform or cluster.
class StampBoard {
 public:
  /// Open loop: one slot per submission of a segment.
  void resize(std::size_t slots) { slots_.assign(slots, BodyStamps{}); }
  [[nodiscard]] BodyStamps& slot(std::size_t index) { return slots_[index]; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Closed loop: the slot the calling thread's next body stamps into.
  static void set_thread_slot(BodyStamps* slot) noexcept;
  [[nodiscard]] static BodyStamps* thread_slot() noexcept;

  /// Traced runs stamp body starts too; untraced runs stamp only returns
  /// (the response instant).
  std::atomic<bool> stamp_starts{false};
  /// Self-test only: corrupt every Nth body response (0 = never).
  std::uint64_t inject_wrong_every = 0;
  std::atomic<std::uint64_t> bodies{0};  // counted only while injecting

 private:
  std::vector<BodyStamps> slots_;
};

/// The benchmark's own Function: runs the real workload body and stamps
/// when it starts and returns. Registered in place of the bare workload.
class StampedFunction final : public horse::workloads::Function {
 public:
  StampedFunction(std::shared_ptr<horse::workloads::Function> inner,
                  TagField field, StampBoard& board)
      : inner_(std::move(inner)), field_(field), board_(board) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] horse::workloads::Category category() const noexcept override {
    return inner_->category();
  }
  [[nodiscard]] Nanos nominal_duration() const noexcept override {
    return inner_->nominal_duration();
  }
  horse::workloads::Response invoke(
      const horse::workloads::Request& request) override;

 private:
  std::shared_ptr<horse::workloads::Function> inner_;
  TagField field_;
  StampBoard& board_;
};

// ---------------------------------------------------------------------------
// Workload bodies and inputs (identically seeded instances serve the
// platform and the oracle).
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t { kFirewall, kNat, kArrayFilter };

[[nodiscard]] std::string_view to_string(Kind kind) noexcept;

/// Distinct inputs of one function, with the packets the firewall must let
/// through (it gets an explicit allow rule for each).
struct InputSet {
  std::vector<horse::workloads::Request> requests;
  std::vector<horse::workloads::FirewallRule> allow_rules;
};

/// Generate `count` distinct requests for `kind` from `seed`. For the
/// packet kinds, `deny_share` of the packets match no allow rule.
[[nodiscard]] InputSet make_inputs(Kind kind, std::size_t count,
                                   std::uint64_t seed, double deny_share);

/// A fresh body instance. Equal (kind, seed, allow_rules) give equal
/// behaviour, which is what the oracle relies on.
[[nodiscard]] std::shared_ptr<horse::workloads::Function> make_body(
    Kind kind, std::uint64_t seed,
    const std::vector<horse::workloads::FirewallRule>& allow_rules);

[[nodiscard]] bool same_response(const horse::workloads::Response& got,
                                 const horse::workloads::Response& want);

// ---------------------------------------------------------------------------
// Exact latency recorder: one counter per nanosecond up to kDirect, a list
// above it. Fixed memory however many requests a run makes.
// ---------------------------------------------------------------------------

class LatencyRecorder {
 public:
  static constexpr Nanos kDirect = 262'144;

  LatencyRecorder() : counts_(static_cast<std::size_t>(kDirect), 0) {}

  void record(Nanos value);
  void merge(const LatencyRecorder& other);
  void clear();
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank quantile in ns (0 with no samples).
  [[nodiscard]] Nanos quantile(double q) const;
  /// Mean in ns of the smallest `keep` share of the values (0 with no
  /// samples).
  [[nodiscard]] double trimmed_mean(double keep) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<Nanos> overflow_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Request spans (traced run).
// ---------------------------------------------------------------------------

enum class Layer : std::uint8_t {
  kRequest,
  kGenLag,
  kClusterSubmit,
  kClusterQueueWait,
  kFaasStart,
  kWorkloadsBody,
  kFaasHop,
  kFaasRepark,
  kCount,
};

[[nodiscard]] std::string_view to_string(Layer layer) noexcept;

struct Span {
  Layer layer = Layer::kRequest;
  Nanos start = 0;
  Nanos end = 0;
};

/// Collects one request at a time: a root span plus its children. Keeps
/// per-layer duration recorders, self times and coverage for every
/// request, and the spans themselves for a bounded sample that is written
/// out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep_every) : keep_every_(keep_every) {}

  /// `children` must lie within the root; they may overlap each other.
  void add(std::uint64_t request_id, const Span& root,
           const Span* children, std::size_t num_children);
  void merge(const SpanLog& other);

  [[nodiscard]] const LatencyRecorder& durations(Layer layer) const {
    return durations_[static_cast<std::size_t>(layer)];
  }
  /// Sum of covered child time over sum of root time.
  [[nodiscard]] double coverage() const noexcept;
  /// Writes the kept spans as CSV and returns the layer summary text.
  [[nodiscard]] std::string write(const std::string& path) const;

 private:
  std::size_t keep_every_;
  std::uint64_t added_ = 0;
  std::array<LatencyRecorder, static_cast<std::size_t>(Layer::kCount)>
      durations_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  double root_ns_ = 0.0;
  double covered_ns_ = 0.0;
  struct Kept {
    std::uint64_t request = 0;
    Span span;
  };
  std::vector<Kept> kept_;
};

// ---------------------------------------------------------------------------
// Process readings.
// ---------------------------------------------------------------------------

/// Moves the calling thread from CPU to CPU in turn over the CPUs the
/// process may use, and gives it back its own CPU mask when destroyed. On a
/// shared host each virtual CPU is slowed by other tenants on its own
/// schedule, for seconds at a time, and a thread left alone stays on
/// whichever CPU it started on, so its run measures that CPU's luck.
/// Rotating spreads every run over all of them. A disabled rotation does
/// nothing.
class CpuRotation {
 public:
  static constexpr Nanos kPeriod = 50 * horse::util::kMillisecond;

  explicit CpuRotation(bool enabled);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move to the next CPU.
  void next() noexcept;
  /// next() whenever `at` has entered a new kPeriod.
  void follow(Nanos at) noexcept;

 private:
  cpu_set_t own_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  Nanos period_ = -1;
};

/// Process CPU time (user + system), all threads.
[[nodiscard]] Nanos process_cpu() noexcept;
/// CPU time of the calling thread.
[[nodiscard]] Nanos thread_cpu() noexcept;
/// Peak resident set size so far, in MB.
[[nodiscard]] double peak_rss_mb() noexcept;

enum class Better { kLower, kHigher };

/// The per-window estimator: the value the best quarter of the windows
/// reach, i.e. the lower quartile of a lower-is-better sample and the upper
/// quartile of a higher-is-better one. On a shared host other tenants take
/// the CPUs away for milliseconds at a time, in a share of the windows that
/// changes from minute to minute; a mean or median over the windows
/// follows that share, while the best quarter reads the program between
/// such periods, which repeats from run to run.
[[nodiscard]] double best_quarter(std::vector<double> values, Better better);

/// Median of a small sample (setup repetitions).
[[nodiscard]] double median(std::vector<double> values);

/// setup_s: the first set-ups in a process pay its page faults and cold
/// caches (the first takes about four times as long as the tenth), so an
/// untraced run sets the workload up kSetupWarmups times untimed, then
/// kSetupRepeats times timed, each on the next CPU (CpuRotation), and
/// reports the median. A traced run sets up once and reports no setup_s.
inline constexpr int kSetupWarmups = 3;
inline constexpr int kSetupRepeats = 24;

/// `teardown()` destroys the previous set-up (untimed), `build()` makes a
/// new one. Returns setup_s in seconds.
template <typename Teardown, typename Build>
double measure_setup(bool traced, Teardown&& teardown, Build&& build) {
  CpuRotation rotation(!traced);
  std::vector<double> timed;
  const int runs = traced ? 1 : kSetupWarmups + kSetupRepeats;
  for (int run = 0; run < runs; ++run) {
    teardown();
    rotation.next();
    const Nanos start = now();
    build();
    if (traced || run >= kSetupWarmups) {
      timed.push_back(static_cast<double>(now() - start) / 1e9);
    }
  }
  return median(std::move(timed));
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Accounting or correctness violations (any entry fails the run).
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void violate(std::string what) {
    correct = false;
    violations.push_back(std::move(what));
  }
};

/// Latency quantiles of one measurement window (of one client, for a
/// closed loop).
struct LatencyWindow {
  Nanos p50 = 0;
  Nanos p90 = 0;
  Nanos p99 = 0;

  [[nodiscard]] static LatencyWindow of(const LatencyRecorder& recorder) {
    return {recorder.quantile(0.50), recorder.quantile(0.90),
            recorder.quantile(0.99)};
  }
};

/// Completed work and CPU of one measurement window (all clients).
struct LoadWindow {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t slo_met = 0;
  Nanos cpu_ns = 0;
  /// Correct responses per second. Open loop: per segment. Closed loop:
  /// the rate the clients are served back to back, summed over clients,
  /// from the mean call time without the slowest share of calls
  /// (kServedCallShare); see run_closed_loop.
  double rps = 0.0;
};

/// What one measured pass of a workload hands back for the end-to-end
/// metrics. A pass is cut into windows (0.5 s for a closed loop, one segment
/// for the open loop); each end-to-end metric is best_quarter() of its
/// per-window values, so a disturbance on the machine moves the other
/// windows, not the result.
struct PassStats {
  /// Every measured latency, pooled (sample counts, tracing overhead).
  LatencyRecorder latency;
  std::vector<LatencyWindow> latency_windows;
  std::vector<LoadWindow> load_windows;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// Fill throughput/latency/slo/cpu/rss metrics from one pass.
void report_end_to_end(const PassStats& pass, Result& result);

/// traced / untraced pooled p50 - 1.
[[nodiscard]] double trace_overhead(const PassStats& untraced,
                                    const PassStats& traced);

/// Write the traced run's spans to <out_dir>/<workload>-seed<N>.csv and
/// print the per-layer summary.
void write_spans(const Options& options, const std::string& workload,
                 const SpanLog& spans);

/// Check a platform's own accounting: per-mode counts sum to invocations.
/// HORSE resumes that fell back to the sorted merge are printed as a note.
void check_platform_accounting(horse::faas::Platform& platform,
                               const std::string& where, Result& result);

/// Per-layer metrics read from the platforms' public stats accessors.
struct PlatformTotals {
  horse::faas::PlatformCounters counters;
  horse::metrics::ContentionStats shard_contention;
  horse::metrics::ContentionStats ull_contention;
  std::size_t paused_max_per_queue = 0;
  std::size_t index_bytes = 0;
  std::uint64_t fallback_merges = 0;
  horse::core::ResumeCycleStats cycles;

  void add(horse::faas::Platform& platform);
};

/// Report the faas/core counter metrics and the span-derived per-layer
/// metrics shared by every workload. `requests` is the number of measured
/// requests the allocation count is divided by.
void report_per_layer(const PlatformTotals& totals, const SpanLog& spans,
                      const LatencyRecorder& horse_start,
                      const LatencyRecorder& warm_start,
                      const LatencyRecorder& restore_start,
                      double allocs_per_req,
                      Result& result);

/// Workload entry points. Each runs the measured pass(es) for
/// `options.trace` and fills `result`.
void run_warm_steady(const Options& options, Result& result);
void run_azure_open(const Options& options, Result& result);
void run_chain_fused(const Options& options, Result& result);

}  // namespace perfbench
