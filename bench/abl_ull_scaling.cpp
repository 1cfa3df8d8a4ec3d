// E10 (ablation, ours) — multiple ull_runqueues (§4.1.3's scaling knob).
//
// Sweeps the number of reserved queues against a burst of paused uLL
// sandboxes and reports (a) how pause-time load balancing spreads the
// sandboxes, (b) aggregate resume latency for the burst, and (c) the
// adaptive scaler's behaviour on a synthetic rate pattern.
#include <iostream>
#include <memory>

#include "core/adaptive_ull.hpp"
#include "core/horse_resume.hpp"
#include "metrics/reporter.hpp"
#include "metrics/stats.hpp"

namespace {

using namespace horse;

constexpr int kSandboxes = 16;
constexpr std::uint32_t kVcpusPerSandbox = 8;

}  // namespace

int main() {
  metrics::TextTable table(
      "Ablation: reserved ull_runqueue count vs burst resume",
      {"queues", "sandboxes/queue (max)", "burst resume total",
       "median resume", "p99 resume"});

  for (const std::uint32_t queues : {1u, 2u, 4u, 8u}) {
    sched::CpuTopology topology(16);
    core::HorseConfig config;
    config.num_ull_runqueues = queues;
    core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(),
                                   config);

    std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
    for (int i = 0; i < kSandboxes; ++i) {
      vmm::SandboxConfig sandbox_config;
      sandbox_config.name = "ull";
      sandbox_config.num_vcpus = kVcpusPerSandbox;
      sandbox_config.memory_mb = 1;
      sandbox_config.ull = true;
      auto sandbox = std::make_unique<vmm::Sandbox>(
          static_cast<sched::SandboxId>(i + 1), sandbox_config);
      (void)engine.start(*sandbox);
      (void)engine.pause(*sandbox);
      sandboxes.push_back(std::move(sandbox));
    }

    // Pause-time balancing: count sandboxes per reserved queue.
    std::size_t max_per_queue = 0;
    for (const sched::CpuId cpu : engine.ull_manager().ull_cpus()) {
      std::size_t count = 0;
      for (const auto& sandbox : sandboxes) {
        const auto assignment =
            engine.ull_manager().assignment(*sandbox);
        if (assignment && *assignment == cpu) {
          ++count;
        }
      }
      max_per_queue = std::max(max_per_queue, count);
    }

    // Burst resume: all 16, back to back.
    metrics::SampleStats latencies;
    util::Stopwatch burst;
    for (auto& sandbox : sandboxes) {
      (void)engine.ull_manager().refresh();
      vmm::ResumeBreakdown bd;
      (void)engine.resume(*sandbox, &bd);
      latencies.add(static_cast<double>(bd.total()));
    }
    const auto burst_total = burst.elapsed();

    table.add_row({std::to_string(queues), std::to_string(max_per_queue),
                   metrics::format_nanos(static_cast<double>(burst_total)),
                   metrics::format_nanos(latencies.percentile(50)),
                   metrics::format_nanos(latencies.percentile(99))});

    for (auto& sandbox : sandboxes) {
      (void)engine.destroy(*sandbox);
    }
  }
  table.print(std::cout);

  // Adaptive scaler trace on a rate ramp.
  std::cout << "\n== adaptive scaler on a trigger-rate ramp ==\n";
  sched::CpuTopology topology(16);
  core::UllRunQueueManager manager(topology, core::HorseConfig{});
  core::AdaptiveUllParams params;
  params.triggers_per_queue_per_sec = 1000.0;
  params.max_queues = 4;
  core::AdaptiveUllScaler scaler(manager, params);
  const std::uint64_t pattern[] = {100,  400,  900,  1700, 3400, 3400,
                                   1700, 900,  400,  100,  50,   50};
  for (const std::uint64_t rate : pattern) {
    const auto queues = scaler.observe(rate, util::kSecond);
    std::cout << "rate " << rate << "/s -> " << queues << " queue(s), ewma "
              << metrics::format_double(scaler.rate_estimate(), 0) << "/s\n";
  }
  std::cout << "grows: " << scaler.grows() << ", shrinks: " << scaler.shrinks()
            << "\n";
  return 0;
}
