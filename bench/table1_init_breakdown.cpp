// E1/E2 — Table 1 and Figure 1 of the paper.
//
// For the three uLL workload categories and the cold / restore / warm
// start strategies, report sandbox-initialization time, average execution
// time, and initialization's share of the end-to-end pipeline.
//
// Init times for cold/restore combine modelled guest-boot / device-reinit
// latency (the parts a user-space reproduction cannot execute; constants
// anchored at the paper's Table 1) with the measured costs of the real
// code paths; warm init is the real vanilla resume plus modelled dispatch
// plumbing. Execution times are real, measured on this host — absolute
// values differ from the paper's Node.js-on-Xeon numbers, but the
// *fractions* (the paper's claim) reproduce.
#include <iostream>
#include <memory>

#include "faas/platform.hpp"
#include "metrics/reporter.hpp"
#include "metrics/stats.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/firewall.hpp"
#include "workloads/nat.hpp"

namespace {

using namespace horse;  // bench drivers: brevity over hygiene

struct Workload {
  std::string label;
  faas::FunctionId id;
  workloads::Request request;
};

constexpr int kRepetitions = 10;  // the paper's 10x procedure

}  // namespace

int main() {
  faas::PlatformConfig config;
  config.num_cpus = 4;
  faas::Platform platform(config);

  auto add = [&](const std::string& name,
                 std::shared_ptr<workloads::Function> impl) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.implementation = std::move(impl);
    spec.sandbox.name = name + "-sb";
    spec.sandbox.num_vcpus = 1;   // the §2 setup: 1 vCPU, 512 MB
    spec.sandbox.memory_mb = 64;  // scaled image keeps restore-copy real
    spec.sandbox.ull = true;
    return *platform.registry().add(std::move(spec));
  };

  workloads::Request packet;
  packet.header = "src=10.2.3.4 dst=192.168.0.1 port=443 proto=tcp";
  // Category 3 at two thresholds over the same 3000 integers: 995,000
  // keeps 0.5 % of the elements, 775,000 (the middle of perfbench's band)
  // about 22.5 %.
  workloads::Request sparse_filter;
  sparse_filter.payload = workloads::ArrayFilterFunction::default_payload();
  sparse_filter.threshold = 995'000;
  workloads::Request filter = sparse_filter;
  filter.threshold = 775'000;
  const faas::FunctionId filter_id =
      add("filter", std::make_shared<workloads::ArrayFilterFunction>());

  std::vector<Workload> categories{
      {"Category1(firewall)",
       add("firewall", std::make_shared<workloads::FirewallFunction>(6000)),
       packet},
      {"Category2(nat)", add("nat", std::make_shared<workloads::NatFunction>()),
       packet},
      {"Category3(filter>995k)", filter_id, sparse_filter},
      {"Category3(filter>775k)", filter_id, filter},
  };

  const std::vector<faas::StartMode> modes{
      faas::StartMode::kCold, faas::StartMode::kRestore, faas::StartMode::kWarm};

  metrics::TextTable table(
      "Table 1: sandbox initialization vs uLL execution (10 runs each)",
      {"workload", "mode", "init (mean)", "exec (mean)", "init %",
       "ci95/mean"});
  std::vector<metrics::Series> fig1;

  for (const auto& workload : categories) {
    (void)platform.provision(workload.id, 1);
    metrics::Series series;
    series.name = workload.label;
    for (const auto mode : modes) {
      metrics::SampleStats init_stats;
      metrics::SampleStats exec_stats;
      // Warmup: populate caches and the warm pool before measuring.
      for (int warm = 0; warm < 3; ++warm) {
        (void)platform.invoke(workload.id, workload.request, mode);
      }
      for (int rep = 0; rep < kRepetitions; ++rep) {
        const auto record = platform.invoke(workload.id, workload.request, mode);
        if (!record) {
          std::cerr << "invoke failed: " << record.status().to_report() << "\n";
          return 1;
        }
        init_stats.add(static_cast<double>(record->init_time));
        exec_stats.add(static_cast<double>(record->exec_time));
      }
      const auto init = init_stats.summarize();
      const auto exec = exec_stats.summarize();
      const double fraction = init.mean / (init.mean + exec.mean);
      table.add_row({workload.label, std::string(to_string(mode)),
                     metrics::format_nanos(init.mean),
                     metrics::format_nanos(exec.mean),
                     metrics::format_percent(fraction),
                     metrics::format_percent(init.ci95_relative())});
      series.xs.push_back(static_cast<double>(series.xs.size()));
      series.ys.push_back(fraction * 100.0);
    }
    fig1.push_back(std::move(series));
  }

  table.print(std::cout);
  std::cout << "\n";
  metrics::print_series(
      std::cout,
      "Figure 1: init %% of pipeline (x: 0=cold, 1=restore, 2=warm)",
      "mode", fig1);
  std::cout << "\nPaper bands: cold/restore >= 98.7%; warm 6.07% (cat1), "
               "42.3% (cat2), 61.1% (cat3).\n";
  return 0;
}
