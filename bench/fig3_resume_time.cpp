// E4 — Figure 3: resume time of a sandbox under the four setups
// (vanil / coal / ppsm / horse) across the vCPU sweep.
//
// Paper bands: coal improves the vanilla resume by 16-20%, ppsm by
// 55-69%, HORSE by up to 85% (7.16x) with a flat O(1) curve (~150 ns on
// the authors' Xeon; absolute values here are this host's).
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <new>

#include "core/horse_resume.hpp"
#include "metrics/csv.hpp"
#include "metrics/reporter.hpp"
#include "metrics/stats.hpp"
#include "util/alloc_counter.hpp"

namespace {

using namespace horse;

constexpr int kRepetitions = 31;
const std::vector<std::uint32_t> kVcpuSweep{1, 2, 4, 8, 16, 24, 32, 36};

// --strict-alloc: gate the full-HORSE resume on zero heap allocations.
// Only meaningful when util/alloc_hook.cpp is compiled into this binary
// (the build does that for fig3; a canary check verifies it is live).
bool g_strict_alloc = false;
std::uint64_t g_strict_checked = 0;
std::uint64_t g_strict_violations = 0;

/// Median resume latency for one engine/feature setup at `vcpus`. With
/// `strict`, every resume after the first is asserted allocation-free
/// (rep 0 is the warm-up rep: first-touch growth of reusable buffers is
/// allowed there, steady state is what the 150 ns claim is about).
double measure(vmm::ResumeEngine& engine, std::uint32_t vcpus, bool ull,
               bool strict = false) {
  vmm::SandboxConfig config;
  config.name = "probe";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = ull;
  vmm::Sandbox sandbox(10'000 + vcpus, config);
  (void)engine.start(sandbox);
  metrics::SampleStats samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    (void)engine.pause(sandbox);
    vmm::ResumeBreakdown bd;
    const std::uint64_t allocs_before = util::thread_alloc_count();
    (void)engine.resume(sandbox, &bd);
    const std::uint64_t allocs_after = util::thread_alloc_count();
    if (strict && g_strict_alloc && rep > 0) {
      ++g_strict_checked;
      if (allocs_after != allocs_before) {
        ++g_strict_violations;
        std::cerr << "strict-alloc violation: " << (allocs_after - allocs_before)
                  << " allocation(s) in resume (vcpus=" << vcpus
                  << " rep=" << rep << ")\n";
      }
    }
    samples.add(static_cast<double>(bd.total()));
  }
  (void)engine.destroy(sandbox);
  return samples.percentile(50);
}

void add_background(vmm::ResumeEngine& engine, vmm::Sandbox& background) {
  for (std::uint32_t i = 0; i < background.num_vcpus(); ++i) {
    background.vcpu(i).credit = 1000 * (i + 1);
  }
  (void)engine.start(background);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict-alloc") == 0) {
      g_strict_alloc = true;
    }
  }
  if (g_strict_alloc) {
    // Canary: a zero reading is only trustworthy if the counting
    // operator new is actually linked into this binary. Call operator
    // new through a volatile pointer so -O3 cannot elide the paired
    // new/delete the way it can for a make_unique expression.
    const std::uint64_t before = util::thread_alloc_count();
    void* (*volatile raw_new)(std::size_t) = ::operator new;
    ::operator delete(raw_new(sizeof(int)));
    if (util::thread_alloc_count() == before) {
      std::cerr << "--strict-alloc: alloc hook not live in this binary\n";
      return 2;
    }
  }

  const auto profile = vmm::VmmProfile::firecracker();
  vmm::SandboxConfig bg_config;
  bg_config.name = "background";
  bg_config.num_vcpus = 16;
  bg_config.memory_mb = 1;

  struct Setup {
    std::string name;
    std::function<double(std::uint32_t)> measure;
    std::unique_ptr<sched::CpuTopology> topology;
    std::unique_ptr<vmm::ResumeEngine> engine;
    std::unique_ptr<vmm::Sandbox> background;
  };
  std::vector<Setup> setups;

  auto add_setup = [&](const std::string& name, bool horse_engine,
                       core::HorseFeatures features, bool strict = false) {
    Setup setup;
    setup.name = name;
    setup.topology = std::make_unique<sched::CpuTopology>(8);
    if (horse_engine) {
      setup.engine = std::make_unique<core::HorseResumeEngine>(
          *setup.topology, profile, core::HorseConfig{}, features);
    } else {
      setup.engine = std::make_unique<vmm::ResumeEngine>(*setup.topology, profile);
    }
    setup.background = std::make_unique<vmm::Sandbox>(888, bg_config);
    add_background(*setup.engine, *setup.background);
    const bool ull = horse_engine;
    vmm::ResumeEngine* engine = setup.engine.get();
    setup.measure = [engine, ull, strict](std::uint32_t vcpus) {
      return measure(*engine, vcpus, ull, strict);
    };
    setups.push_back(std::move(setup));
  };

  add_setup("vanil", false, {});
  add_setup("coal", true, core::HorseFeatures::coalescing_only());
  add_setup("ppsm", true, core::HorseFeatures::ppsm_only());
  add_setup("horse", true, core::HorseFeatures::all(), /*strict=*/true);

  // The full-HORSE engine, for the degraded-resume accounting: a fallback
  // merge means a sample was NOT the O(1) splice (stale/poisoned index) —
  // Figure 3's flat curve is only meaningful if this column stays 0.
  auto* horse_engine =
      static_cast<core::HorseResumeEngine*>(setups.back().engine.get());

  metrics::TextTable table(
      "Figure 3: resume time by setup (median ns over 31 runs)",
      {"vcpus", "vanil", "coal", "ppsm", "horse", "horse speedup"});
  std::vector<metrics::Series> series(5);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    series[i].name = setups[i].name;
  }
  series[4].name = "horse_degraded_resumes";

  for (const std::uint32_t vcpus : kVcpuSweep) {
    std::vector<double> results;
    const std::uint64_t degraded_before =
        horse_engine->degradation_stats().fallback_merges;
    for (auto& setup : setups) {
      results.push_back(setup.measure(vcpus));
    }
    const std::uint64_t degraded_after =
        horse_engine->degradation_stats().fallback_merges;
    table.add_row({std::to_string(vcpus), metrics::format_nanos(results[0]),
                   metrics::format_nanos(results[1]),
                   metrics::format_nanos(results[2]),
                   metrics::format_nanos(results[3]),
                   metrics::format_double(results[0] / results[3], 2) + "x"});
    for (std::size_t i = 0; i < setups.size(); ++i) {
      series[i].xs.push_back(vcpus);
      series[i].ys.push_back(results[i]);
    }
    series[4].xs.push_back(vcpus);
    series[4].ys.push_back(static_cast<double>(degraded_after - degraded_before));
  }

  table.print(std::cout);
  std::cout << "\n";
  metrics::print_series(std::cout, "Figure 3 series (ns)", "vcpus", series);

  // Degradation accounting for the full-HORSE engine across the whole
  // sweep: nonzero fallback counts flag samples that silently took the
  // vanilla walk instead of the measured O(1) splice.
  const core::ResumeDegradationStats deg = horse_engine->degradation_stats();
  metrics::counters_table("HORSE degraded-resume counters",
                 {{"fallback_merges", deg.fallback_merges},
                  {"poisoned_index_fallbacks", deg.poisoned_index_fallbacks},
                  {"merge_error_fallbacks", deg.merge_error_fallbacks},
                  {"in_place_rebuilds", deg.in_place_rebuilds}})
      .print(std::cout);

  // Machine-readable copy for plotting / diffing against the paper.
  const auto csv_status = metrics::series_to_csv("vcpus", series)
                              .write_file("fig3_resume_time.csv");
  if (csv_status.is_ok()) {
    std::cout << "\nwrote fig3_resume_time.csv\n";
  }

  const double improvement_36 =
      1.0 - series[3].ys.back() / series[0].ys.back();
  const double flatness =
      series[3].ys.back() / series[3].ys.front();
  std::cout << "\nhorse improvement at 36 vCPUs: "
            << metrics::format_percent(improvement_36, 1) << " ("
            << metrics::format_double(series[0].ys.back() / series[3].ys.back(), 2)
            << "x)\nhorse 36-vCPU / 1-vCPU ratio (flatness): "
            << metrics::format_double(flatness, 2)
            << "\nPaper bands: coal 16-20%, ppsm 55-69%, horse up to 85% "
               "(7.16x); horse flat across vCPUs.\n";

  if (g_strict_alloc) {
    std::cout << "\nstrict-alloc: " << g_strict_checked
              << " steady-state HORSE resumes checked, " << g_strict_violations
              << " violation(s)\n";
    if (g_strict_checked == 0 || g_strict_violations != 0) {
      return 1;
    }
  }
  return 0;
}
