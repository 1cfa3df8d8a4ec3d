// E10 (ablation, ours) — multiple ull_runqueues (§4.1.3's scaling knob).
//
// The reserved queue count is a construction-time deployment setting.
// Two tables, on the shipped index upkeep (step ④ freshens a stale index
// in place; nothing refreshes paused indexes in between):
//   1. burst: 16 paused 8-vCPU sandboxes resumed back to back against 1,
//      2, 4 and 8 reserved queues — how pause-time balancing spreads
//      them, the burst's resume latency, and how many step-④ freshenings
//      were journal repairs vs rebuilds;
//   2. warm_steady depth: 48 paused sandboxes per queue (1-4 vCPUs, the
//      repository benchmark's mix), cycled resume → re-park in a seeded
//      order — what 1, 2, 4 and 8 reserved queues cost per warm cycle and
//      in index memory.
// Both runs are single-threaded and fault-free, so any degraded resume
// (a fallback to the vanilla walk) is a bug: the binary exits 1.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/horse_resume.hpp"
#include "metrics/reporter.hpp"
#include "metrics/stats.hpp"
#include "util/rng.hpp"

namespace {

using namespace horse;

constexpr int kBurstSandboxes = 16;
constexpr std::uint32_t kBurstVcpus = 8;
constexpr std::size_t kPausedPerQueue = 48;
constexpr int kWarmCycles = 4'000;
constexpr std::uint32_t kQueueCounts[] = {1, 2, 4, 8};

std::unique_ptr<vmm::Sandbox> make_ull(int id, std::uint32_t vcpus) {
  vmm::SandboxConfig config;
  config.name = "ull";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = true;
  return std::make_unique<vmm::Sandbox>(static_cast<sched::SandboxId>(id),
                                        config);
}

/// Whether any resume fell back to the vanilla walk, for any cause.
bool degraded(const core::ResumeDegradationStats& stats) {
  return stats.fallback_merges != 0 || stats.poisoned_index_fallbacks != 0 ||
         stats.merge_error_fallbacks != 0;
}

core::HorseConfig with_queues(std::uint32_t queues) {
  core::HorseConfig config;
  config.num_ull_runqueues = queues;
  return config;
}

}  // namespace

int main() {
  int degraded_runs = 0;

  metrics::TextTable burst_table(
      "Ablation: reserved ull_runqueue count vs burst resume",
      {"queues", "sandboxes/queue (max)", "burst resume total",
       "median resume", "p99 resume", "in-place repairs",
       "in-place rebuilds"});
  for (const std::uint32_t queues : kQueueCounts) {
    sched::CpuTopology topology(16);
    core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(),
                                   with_queues(queues));

    std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
    for (int i = 0; i < kBurstSandboxes; ++i) {
      auto sandbox = make_ull(i + 1, kBurstVcpus);
      (void)engine.start(*sandbox);
      (void)engine.pause(*sandbox);
      sandboxes.push_back(std::move(sandbox));
    }

    // Pause-time balancing: the most-occupied reserved queue.
    std::size_t max_per_queue = 0;
    for (const auto& occupancy : engine.ull_manager().snapshot().occupancy) {
      max_per_queue = std::max(max_per_queue, occupancy.paused);
    }

    // Burst resume: all 16, back to back.
    metrics::SampleStats latencies;
    util::Stopwatch burst;
    for (auto& sandbox : sandboxes) {
      vmm::ResumeBreakdown bd;
      (void)engine.resume(*sandbox, &bd);
      latencies.add(static_cast<double>(bd.total()));
    }
    const auto burst_total = burst.elapsed();
    const core::ResumeDegradationStats stats = engine.degradation_stats();
    degraded_runs += degraded(stats) ? 1 : 0;

    burst_table.add_row(
        {std::to_string(queues), std::to_string(max_per_queue),
         metrics::format_nanos(static_cast<double>(burst_total)),
         metrics::format_nanos(latencies.percentile(50)),
         metrics::format_nanos(latencies.percentile(99)),
         std::to_string(stats.in_place_repairs),
         std::to_string(stats.in_place_rebuilds)});

    for (auto& sandbox : sandboxes) {
      (void)engine.destroy(*sandbox);
    }
  }
  burst_table.print(std::cout);

  metrics::TextTable depth_table(
      "Reserved queue count at warm_steady depth (" +
          std::to_string(kPausedPerQueue) + " paused sandboxes per queue, " +
          std::to_string(kWarmCycles) + " warm cycles)",
      {"queues", "paused", "p2sm memory", "median resume", "p99 resume",
       "median re-park", "in-place repairs", "in-place rebuilds"});
  for (const std::uint32_t queues : kQueueCounts) {
    sched::CpuTopology topology(16);
    core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(),
                                   with_queues(queues));

    const std::size_t paused = kPausedPerQueue * queues;
    std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
    for (std::size_t i = 0; i < paused; ++i) {
      auto sandbox = make_ull(static_cast<int>(i + 1),
                              1 + static_cast<std::uint32_t>(i % 4));
      (void)engine.start(*sandbox);
      (void)engine.pause(*sandbox);
      sandboxes.push_back(std::move(sandbox));
    }
    const std::size_t index_bytes = engine.ull_manager().total_index_bytes();

    // Warm cycles: resume a seeded pick, then re-park it, as a warm hit
    // does. Each pause rebuilds the re-parked sandbox's index; each resume
    // freshens its own index against the churn since its last pause.
    util::Xoshiro256 rng(7);
    metrics::SampleStats resumes;
    metrics::SampleStats reparks;
    for (int cycle = 0; cycle < kWarmCycles; ++cycle) {
      vmm::Sandbox& sandbox = *sandboxes[rng.bounded(paused)];
      vmm::ResumeBreakdown bd;
      (void)engine.resume(sandbox, &bd);
      resumes.add(static_cast<double>(bd.total()));
      util::Stopwatch repark;
      (void)engine.pause(sandbox);
      reparks.add(static_cast<double>(repark.elapsed()));
    }
    const core::ResumeDegradationStats stats = engine.degradation_stats();
    degraded_runs += degraded(stats) ? 1 : 0;

    depth_table.add_row(
        {std::to_string(queues), std::to_string(paused),
         metrics::format_double(static_cast<double>(index_bytes) / 1024.0, 1) +
             " KB",
         metrics::format_nanos(resumes.percentile(50)),
         metrics::format_nanos(resumes.percentile(99)),
         metrics::format_nanos(reparks.percentile(50)),
         std::to_string(stats.in_place_repairs),
         std::to_string(stats.in_place_rebuilds)});

    for (auto& sandbox : sandboxes) {
      (void)engine.destroy(*sandbox);
    }
  }
  std::cout << "\n";
  depth_table.print(std::cout);

  if (degraded_runs != 0) {
    std::cerr << "abl_ull_scaling: " << degraded_runs
              << " fault-free run(s) had degraded resumes\n";
    return 1;
  }
  return 0;
}
