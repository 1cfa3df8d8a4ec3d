// perfbench — the repository benchmark driver.
//
//   perfbench --workload warm_steady|azure_open|chain_fused --seed N
//             --seconds S --trace 0|1 [--inject-wrong K] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs an untraced half and a traced half and reports the per-layer
// metrics (and the tracing overhead between the two halves). The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every response matched the oracle and every
// accounting identity held; 1 on a violation; 2 on bad usage.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload warm_steady|azure_open|chain_fused"
               " --seed N --seconds S --trace 0|1 [--inject-wrong K]"
               " [--out-dir DIR]\n";
}

std::string json_number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string to_json(const perfbench::Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. Otherwise glibc hands large blocks
  // and the top of the heap back to the kernel, and the next set-up pays
  // fresh page faults, whose cost in a virtual machine follows the host's
  // load (warm_steady's set-ups on a 4-vCPU guest: 1.1-2.3 ms with them,
  // 0.7-1.2 ms without).
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);

  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--inject-wrong") {
      options.inject_wrong_every = std::strtoull(value, nullptr, 10);
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !(options.seconds > 0.0) || options.seconds > 120.0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    if (options.workload == "warm_steady") {
      perfbench::run_warm_steady(options, result);
    } else if (options.workload == "azure_open") {
      perfbench::run_azure_open(options, result);
    } else if (options.workload == "chain_fused") {
      perfbench::run_chain_fused(options, result);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << ": " << error.what()
              << "\n";
    return 1;
  }
  for (const std::string& violation : result.violations) {
    std::cerr << "VIOLATION: " << violation << "\n";
  }
  std::cout << to_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
