#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/rng.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/nat.hpp"

namespace perfbench {

namespace wl = horse::workloads;

// ---------------------------------------------------------------------------
// StampBoard / StampedFunction
// ---------------------------------------------------------------------------

namespace {
thread_local BodyStamps* current_slot = nullptr;
}  // namespace

void StampBoard::set_thread_slot(BodyStamps* slot) noexcept {
  current_slot = slot;
}

BodyStamps* StampBoard::thread_slot() noexcept { return current_slot; }

wl::Response StampedFunction::invoke(const wl::Request& request) {
  BodyStamps* slot = nullptr;
  switch (field_) {
    case TagField::kThread:
      slot = StampBoard::thread_slot();
      break;
    case TagField::kThreshold:
      if (request.threshold >= 0 &&
          static_cast<std::size_t>(request.threshold) < board_.size()) {
        slot = &board_.slot(static_cast<std::size_t>(request.threshold));
      }
      break;
    case TagField::kHeader: {
      std::size_t index = 0;
      const char* first = request.header.data();
      const char* last = first + request.header.size();
      const auto parsed = std::from_chars(first, last, index);
      if (parsed.ec == std::errc{} && parsed.ptr == last &&
          index < board_.size()) {
        slot = &board_.slot(index);
      }
      break;
    }
  }
  const Nanos start =
      board_.stamp_starts.load(std::memory_order_relaxed) ? now() : 0;
  wl::Response response = inner_->invoke(request);
  const Nanos end = now();
  if (board_.inject_wrong_every != 0 &&
      (board_.bodies.fetch_add(1, std::memory_order_relaxed) + 1) %
              board_.inject_wrong_every ==
          0) {
    response.checksum ^= 0x5a5a;  // deliberately wrong answer
  }
  // A request with no slot is never matched to a response instant and is
  // counted as failed by its workload.
  if (slot != nullptr && slot->count < BodyStamps::kMaxBodies) {
    slot->start[static_cast<std::size_t>(slot->count)] = start;
    slot->end[static_cast<std::size_t>(slot->count)] = end;
    ++slot->count;
  }
  return response;
}

// ---------------------------------------------------------------------------
// Inputs, bodies, oracle comparison
// ---------------------------------------------------------------------------

std::string_view to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kFirewall: return "firewall";
    case Kind::kNat: return "nat";
    case Kind::kArrayFilter: return "array_filter";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kFirewallRules = 256;
constexpr std::size_t kNatRules = 64;
constexpr std::int32_t kArrayValueRange = 1'000'000;

std::string ipv4(std::uint32_t addr) {
  char text[16];
  std::snprintf(text, sizeof text, "%u.%u.%u.%u", addr >> 24,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return text;
}

}  // namespace

InputSet make_inputs(Kind kind, std::size_t count, std::uint64_t seed,
                     double deny_share) {
  horse::util::Xoshiro256 rng(seed);
  // The seed picks the concrete packets and arrays; the properties that set
  // the work per request are stratified, so every seed gets the same mix:
  // exactly round(deny_share * count) denied packets, and array thresholds
  // spread evenly over [600k, 950k) (5-40% of the elements kept).
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[i] = i;
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  const auto denied = static_cast<std::size_t>(
      std::lround(deny_share * static_cast<double>(count)));
  InputSet set;
  set.requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    wl::Request request;
    if (kind == Kind::kArrayFilter) {
      request.payload.reserve(wl::ArrayFilterFunction::kDefaultArraySize);
      for (std::size_t j = 0; j < wl::ArrayFilterFunction::kDefaultArraySize;
           ++j) {
        request.payload.push_back(
            static_cast<std::int32_t>(rng.bounded(kArrayValueRange)));
      }
      request.threshold = static_cast<std::int32_t>(
          600'000 + 350'000 * (static_cast<double>(order[i]) + 0.5) /
                        static_cast<double>(count));
    } else {
      // 10.0.0.0/8 sources, arbitrary destinations, unprivileged ports.
      const auto src = static_cast<std::uint32_t>(
          (10U << 24) | static_cast<std::uint32_t>(rng.bounded(1U << 24)));
      const auto dst = static_cast<std::uint32_t>(rng());
      const auto port = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
      const bool tcp = order[i] % 4 != 0;
      request.header = "src=" + ipv4(src) + " dst=" + ipv4(dst) +
                       " port=" + std::to_string(port) +
                       (tcp ? " proto=tcp" : " proto=udp");
      if (order[i] >= denied) {
        wl::FirewallRule rule;
        rule.src_mask = ~0U << 8;
        rule.src_prefix = src & rule.src_mask;
        rule.dst_addr = dst;
        rule.port_lo = port;
        rule.port_hi = port;
        rule.proto = tcp ? 6 : 17;
        set.allow_rules.push_back(rule);
      }
    }
    set.requests.push_back(std::move(request));
  }
  return set;
}

std::shared_ptr<wl::Function> make_body(
    Kind kind, std::uint64_t seed,
    const std::vector<wl::FirewallRule>& allow_rules) {
  switch (kind) {
    case Kind::kFirewall: {
      auto body = std::make_shared<wl::FirewallFunction>(kFirewallRules, seed);
      for (const wl::FirewallRule& rule : allow_rules) {
        body->add_rule(rule);
      }
      return body;
    }
    case Kind::kNat: {
      auto body = std::make_shared<wl::NatFunction>(kNatRules, seed);
      // Packets that pass the firewall get a translation; the rest keep
      // their destination.
      for (const wl::FirewallRule& rule : allow_rules) {
        body->add_rule(rule.dst_addr, rule.port_lo,
                       wl::NatRule{rule.dst_addr ^ 0x0a0b0c0dU,
                                   static_cast<std::uint16_t>(rule.port_lo + 1)});
      }
      return body;
    }
    case Kind::kArrayFilter:
      return std::make_shared<wl::ArrayFilterFunction>();
  }
  return nullptr;
}

bool same_response(const wl::Response& got, const wl::Response& want) {
  return got.allowed == want.allowed && got.checksum == want.checksum &&
         got.rewritten_header == want.rewritten_header &&
         got.indexes == want.indexes;
}

// ---------------------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------------------

void LatencyRecorder::record(Nanos value) {
  if (value < 0) {
    value = 0;
  }
  if (value < kDirect) {
    ++counts_[static_cast<std::size_t>(value)];
  } else {
    overflow_.push_back(value);
  }
  ++count_;
}

double LatencyRecorder::trimmed_mean(double keep) const {
  auto left = static_cast<std::uint64_t>(
      std::ceil(keep * static_cast<double>(count_)));
  if (left == 0) {
    return 0.0;
  }
  const std::uint64_t kept = left;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size() && left > 0; ++i) {
    const std::uint64_t take = std::min<std::uint64_t>(counts_[i], left);
    sum += static_cast<double>(take) * static_cast<double>(i);
    left -= take;
  }
  if (left > 0) {
    std::vector<Nanos> above = overflow_;
    std::sort(above.begin(), above.end());
    for (std::size_t i = 0; i < above.size() && left > 0; ++i, --left) {
      sum += static_cast<double>(above[i]);
    }
  }
  return sum / static_cast<double>(kept);
}

void LatencyRecorder::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  overflow_.clear();
  count_ = 0;
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

Nanos LatencyRecorder::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return static_cast<Nanos>(i);
    }
  }
  std::vector<Nanos> above = overflow_;
  const std::size_t index =
      std::min<std::size_t>(static_cast<std::size_t>(rank - seen - 1),
                            above.size() - 1);
  std::nth_element(above.begin(),
                   above.begin() + static_cast<std::ptrdiff_t>(index),
                   above.end());
  return above[index];
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

std::string_view to_string(Layer layer) noexcept {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kGenLag: return "bench.gen_lag";
    case Layer::kClusterSubmit: return "cluster.submit";
    case Layer::kClusterQueueWait: return "cluster.queue_wait";
    case Layer::kFaasStart: return "faas.start";
    case Layer::kWorkloadsBody: return "workloads.body";
    case Layer::kFaasHop: return "faas.hop";
    case Layer::kFaasRepark: return "faas.repark";
    case Layer::kCount: break;
  }
  return "unknown";
}

void SpanLog::add(std::uint64_t request_id, const Span& root,
                  const Span* children, std::size_t num_children) {
  constexpr std::size_t kMaxChildren = 16;
  std::array<Span, kMaxChildren> sorted{};
  const std::size_t n = std::min(num_children, kMaxChildren);
  std::copy(children, children + n, sorted.begin());
  std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  // Union of the children, clipped to the root.
  Nanos covered = 0;
  Nanos cursor = root.start;
  for (std::size_t i = 0; i < n; ++i) {
    const Nanos begin = std::max(sorted[i].start, cursor);
    const Nanos end = std::min(sorted[i].end, root.end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  const Nanos root_ns = std::max<Nanos>(0, root.end - root.start);
  root_ns_ += static_cast<double>(root_ns);
  covered_ns_ += static_cast<double>(std::min(covered, root_ns));
  durations_[static_cast<std::size_t>(Layer::kRequest)].record(root_ns);
  self_ns_[static_cast<std::size_t>(Layer::kRequest)] +=
      static_cast<double>(root_ns - std::min(covered, root_ns));
  for (std::size_t i = 0; i < n; ++i) {
    const Nanos duration = std::max<Nanos>(0, sorted[i].end - sorted[i].start);
    durations_[static_cast<std::size_t>(sorted[i].layer)].record(duration);
    self_ns_[static_cast<std::size_t>(sorted[i].layer)] +=
        static_cast<double>(duration);
  }
  if (added_++ % keep_every_ == 0) {
    kept_.push_back({request_id, root});
    for (std::size_t i = 0; i < n; ++i) {
      kept_.push_back({request_id, sorted[i]});
    }
  }
}

void SpanLog::merge(const SpanLog& other) {
  for (std::size_t i = 0; i < durations_.size(); ++i) {
    durations_[i].merge(other.durations_[i]);
    self_ns_[i] += other.self_ns_[i];
  }
  root_ns_ += other.root_ns_;
  covered_ns_ += other.covered_ns_;
  added_ += other.added_;
  kept_.insert(kept_.end(), other.kept_.begin(), other.kept_.end());
}

double SpanLog::coverage() const noexcept {
  return root_ns_ <= 0.0 ? 0.0 : covered_ns_ / root_ns_;
}

std::string SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (out) {
    out << "request,layer,start_ns,end_ns\n";
    for (const Kept& kept : kept_) {
      out << kept.request << ',' << to_string(kept.span.layer) << ','
          << kept.span.start << ',' << kept.span.end << '\n';
    }
  }
  std::ostringstream summary;
  summary << "layer               count      p50_ns      p99_ns  share_of_request\n";
  for (std::size_t i = 0; i < durations_.size(); ++i) {
    const LatencyRecorder& d = durations_[i];
    if (d.count() == 0) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof line, "%-18s %9llu %11lld %11lld  %6.3f%s\n",
                  std::string(to_string(static_cast<Layer>(i))).c_str(),
                  static_cast<unsigned long long>(d.count()),
                  static_cast<long long>(d.quantile(0.5)),
                  static_cast<long long>(d.quantile(0.99)),
                  root_ns_ > 0.0 ? self_ns_[i] / root_ns_ : 0.0,
                  i == 0 ? "  (uncovered self time)" : "");
    summary << line;
  }
  summary << "spans written: " << kept_.size() << " to " << path
          << (out ? "" : " (FAILED to open)") << "\n";
  return summary.str();
}

// ---------------------------------------------------------------------------
// Process readings
// ---------------------------------------------------------------------------

namespace {
Nanos read_clock(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<Nanos>(ts.tv_sec) * horse::util::kSecond + ts.tv_nsec;
}
}  // namespace

CpuRotation::CpuRotation(bool enabled) {
  if (!enabled || sched_getaffinity(0, sizeof own_, &own_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &own_)) {
      cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() < 2) {
    cpus_.clear();
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    (void)sched_setaffinity(0, sizeof own_, &own_);
  }
}

void CpuRotation::next() noexcept {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &target);
  // A refusal (a CPU taken away meanwhile) just leaves the thread where it is.
  (void)sched_setaffinity(0, sizeof target, &target);
}

void CpuRotation::follow(Nanos at) noexcept {
  const Nanos period = at / kPeriod;
  if (period != period_) {
    period_ = period;
    next();
  }
}

Nanos process_cpu() noexcept { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }
Nanos thread_cpu() noexcept { return read_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double best_quarter(std::vector<double> values, Better better) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // Quartile by linear interpolation between the closest ranks.
  const double rank = (better == Better::kLower ? 0.25 : 0.75) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void report_end_to_end(const PassStats& pass, Result& result) {
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (const LatencyWindow& w : pass.latency_windows) {
    p50.push_back(static_cast<double>(w.p50) / 1000.0);
    p90.push_back(static_cast<double>(w.p90) / 1000.0);
    p99.push_back(static_cast<double>(w.p99) / 1000.0);
  }
  std::vector<double> rps;
  std::vector<double> slo;
  std::vector<double> cpu;
  for (const LoadWindow& w : pass.load_windows) {
    const auto ok = static_cast<double>(w.ok);
    rps.push_back(w.rps);
    slo.push_back(w.attempted == 0 ? 0.0
                                   : static_cast<double>(w.slo_met) /
                                         static_cast<double>(w.attempted));
    cpu.push_back(w.ok == 0 ? 0.0
                            : static_cast<double>(w.cpu_ns) / 1000.0 / ok);
  }
  result.set("throughput_rps", best_quarter(rps, Better::kHigher), "req/s");
  result.set("latency_p50_us", best_quarter(p50, Better::kLower), "us");
  result.set("latency_p90_us", best_quarter(p90, Better::kLower), "us");
  result.set("latency_p99_us", best_quarter(p99, Better::kLower), "us");
  result.set("slo_met_frac", best_quarter(slo, Better::kHigher), "ratio");
  result.set("cpu_us_per_req", best_quarter(cpu, Better::kLower), "us");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  const std::size_t windows = std::max<std::size_t>(1, p99.size());
  std::cout << "latency: " << pass.latency.count() << " samples in "
            << p99.size() << " windows (about "
            << pass.latency.count() / windows / 100
            << " beyond each window's p99); pooled p50/p90/p99 "
            << static_cast<double>(pass.latency.quantile(0.50)) / 1000.0
            << "/" << static_cast<double>(pass.latency.quantile(0.90)) / 1000.0
            << "/" << static_cast<double>(pass.latency.quantile(0.99)) / 1000.0
            << " us\n";
}

double trace_overhead(const PassStats& untraced, const PassStats& traced) {
  // Same estimator as latency_p50_us.
  const auto p50 = [](const PassStats& pass) {
    std::vector<double> values;
    for (const LatencyWindow& w : pass.latency_windows) {
      values.push_back(static_cast<double>(w.p50));
    }
    return best_quarter(std::move(values), Better::kLower);
  };
  const double base = p50(untraced);
  return base <= 0.0 ? 0.0 : p50(traced) / base - 1.0;
}

void write_spans(const Options& options, const std::string& workload,
                 const SpanLog& spans) {
  std::filesystem::create_directories(options.out_dir);
  std::cout << spans.write(options.out_dir + "/" + workload + "-seed" +
                           std::to_string(options.seed) + ".csv");
}

void check_platform_accounting(horse::faas::Platform& platform,
                               const std::string& where, Result& result) {
  const horse::faas::PlatformCounters c = platform.counters();
  if (c.cold + c.restore + c.warm + c.horse != c.invocations) {
    result.violate(where + ": per-mode counts " +
                   std::to_string(c.cold + c.restore + c.warm + c.horse) +
                   " != invocations " + std::to_string(c.invocations));
  }
  const horse::core::ResumeDegradationStats d =
      platform.resume_degradation_stats();
  // Reported, not failed: the library today leaves every other paused
  // sandbox's index stale after each resume on a shared queue, so these
  // fire in fault-free runs (README.md, "Known defect").
  if (d.fallback_merges != 0) {
    std::cout << "note: " << where << ": " << d.fallback_merges
              << " HORSE resumes fell back to the sorted merge (stale "
              << d.stale_index_fallbacks << ", poisoned "
              << d.poisoned_index_fallbacks << ", merge error "
              << d.merge_error_fallbacks << ") of " << c.horse
              << " kHorse completions\n";
  }
}

void PlatformTotals::add(horse::faas::Platform& platform) {
  counters += platform.counters();
  const horse::faas::ControlPlaneSnapshot plane =
      platform.control_plane_snapshot();
  shard_contention += plane.shard_contention;
  ull_contention += plane.ull.contention;
  for (const auto& queue : plane.ull.occupancy) {
    paused_max_per_queue = std::max(paused_max_per_queue, queue.paused);
  }
  index_bytes += platform.ull_manager().total_index_bytes();
  fallback_merges += platform.resume_degradation_stats().fallback_merges;
  for (const auto& engine : platform.horse_engines()) {
    const horse::core::ResumeCycleStats stats = engine->cycle_stats();
    cycles.resumes += stats.resumes;
    cycles.prologue_cycles += stats.prologue_cycles;
    cycles.lookup_cycles += stats.lookup_cycles;
    cycles.splice_cycles += stats.splice_cycles;
    cycles.publish_cycles += stats.publish_cycles;
    cycles.total_cycles.merge(stats.total_cycles);
  }
}

void report_per_layer(const PlatformTotals& totals, const SpanLog& spans,
                      const LatencyRecorder& horse_start,
                      const LatencyRecorder& warm_start,
                      const LatencyRecorder& restore_start,
                      double allocs_per_req,
                      Result& result) {
  const auto ratio = [](double num, double den) {
    return den <= 0.0 ? 0.0 : num / den;
  };
  const auto us = [](const LatencyRecorder& r, double q) {
    return static_cast<double>(r.quantile(q)) / 1000.0;
  };
  const horse::faas::PlatformCounters& c = totals.counters;
  const auto invocations = static_cast<double>(c.invocations);

  // Cluster-layer metrics exist only where a ClusterScheduler runs; the
  // azure_open workload overwrites these.
  for (const char* name : {"cluster.submit_ns_p50", "cluster.submit_ns_p99"}) {
    result.set(name, 0.0, "ns");
  }
  for (const char* name :
       {"cluster.queue_wait_us_p50", "cluster.queue_wait_us_p99"}) {
    result.set(name, 0.0, "us");
  }
  result.set("cluster.host_share_max", 0.0, "ratio");
  result.set("bench.gen_lag_us_p99", 0.0, "us");

  const LatencyRecorder& start = spans.durations(Layer::kFaasStart);
  const LatencyRecorder& repark = spans.durations(Layer::kFaasRepark);
  result.set("faas.start_us_p50", us(start, 0.50), "us");
  result.set("faas.start_us_p99", us(start, 0.99), "us");
  result.set("faas.repark_us_p50", us(repark, 0.50), "us");
  result.set("faas.repark_us_p99", us(repark, 0.99), "us");
  result.set("faas.warm_hit_frac",
             ratio(static_cast<double>(c.horse + c.warm), invocations),
             "ratio");
  result.set("faas.fallbacks_per_kreq",
             ratio(1000.0 * static_cast<double>(c.rung_fallbacks), invocations),
             "1/kreq");
  result.set("faas.shard_contended_frac",
             totals.shard_contention.contended_fraction(), "ratio");
  result.set("faas.allocs_per_req", allocs_per_req, "count");
  result.set("faas.fused_frac",
             ratio(static_cast<double>(c.fused_segments),
                   static_cast<double>(c.chains_invoked)),
             "ratio");

  const auto resumes = static_cast<double>(totals.cycles.resumes);
  result.set("core.horse_start_us_p50", us(horse_start, 0.50), "us");
  result.set("core.resume_cycles_p50",
             static_cast<double>(totals.cycles.total_cycles.p50()), "cycles");
  result.set("core.resume_cycles_p99",
             static_cast<double>(totals.cycles.total_cycles.p99()), "cycles");
  result.set("core.prologue_cycles_mean",
             ratio(static_cast<double>(totals.cycles.prologue_cycles), resumes),
             "cycles");
  result.set("core.lookup_cycles_mean",
             ratio(static_cast<double>(totals.cycles.lookup_cycles), resumes),
             "cycles");
  result.set("core.splice_cycles_mean",
             ratio(static_cast<double>(totals.cycles.splice_cycles), resumes),
             "cycles");
  result.set("core.publish_cycles_mean",
             ratio(static_cast<double>(totals.cycles.publish_cycles), resumes),
             "cycles");
  result.set("core.ull_contended_frac",
             totals.ull_contention.contended_fraction(), "ratio");
  result.set("core.paused_max_per_queue",
             static_cast<double>(totals.paused_max_per_queue), "count");
  result.set("core.index_bytes", static_cast<double>(totals.index_bytes),
             "bytes");
  result.set("core.fallback_merges",
             static_cast<double>(totals.fallback_merges), "count");

  result.set("vmm.warm_start_us_p50", us(warm_start, 0.50), "us");
  result.set("vmm.restore_start_us_p50", us(restore_start, 0.50), "us");
  const LatencyRecorder& bodies = spans.durations(Layer::kWorkloadsBody);
  result.set("workloads.body_ns_p50",
             static_cast<double>(bodies.quantile(0.50)), "ns");
  result.set("workloads.body_ns_p99",
             static_cast<double>(bodies.quantile(0.99)), "ns");
  result.set("bench.span_coverage_frac", spans.coverage(), "ratio");
}

}  // namespace perfbench
