// Physical-CPU topology: one run queue per CPU, with some queues
// reservable for uLL sandboxes (the paper's ull_runqueue, §4.1.3).
//
// Reserved queues are excluded from general vCPU placement, so longer-
// running functions never land on them — the isolation that §5.4 credits
// for the absence of mean/p95 interference.
//
// Thread-safety: the queue array is immutable after construction and each
// RunQueue carries its own locks, so any number of threads may operate on
// (distinct or shared) queues concurrently. The reserved flags are set
// while the owner is being set up (the UllRunQueueManager's constructor,
// before any thread places a vCPU) and only read after that.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sched/run_queue.hpp"

namespace horse::sched {

class CpuTopology {
 public:
  explicit CpuTopology(std::size_t num_cpus, PeltParams pelt = {}) {
    if (num_cpus == 0) {
      throw std::invalid_argument("CpuTopology: need at least one CPU");
    }
    queues_.reserve(num_cpus);
    for (std::size_t cpu = 0; cpu < num_cpus; ++cpu) {
      queues_.push_back(
          std::make_unique<RunQueue>(static_cast<CpuId>(cpu), pelt));
    }
    reserved_.resize(num_cpus, false);
  }

  [[nodiscard]] std::size_t num_cpus() const noexcept { return queues_.size(); }

  [[nodiscard]] RunQueue& queue(CpuId cpu) {
    return *queues_.at(cpu);
  }
  [[nodiscard]] const RunQueue& queue(CpuId cpu) const {
    return *queues_.at(cpu);
  }

  /// Mark a CPU's queue as a reserved ull_runqueue (setup only).
  void reserve_for_ull(CpuId cpu) { reserved_.at(cpu) = true; }
  [[nodiscard]] bool is_reserved(CpuId cpu) const { return reserved_.at(cpu); }

  [[nodiscard]] std::vector<CpuId> reserved_cpus() const {
    std::vector<CpuId> out;
    for (CpuId cpu = 0; cpu < reserved_.size(); ++cpu) {
      if (is_reserved(cpu)) {
        out.push_back(cpu);
      }
    }
    return out;
  }

  /// Least-loaded non-reserved queue — the vanilla placement policy used
  /// by step ④ when it "finds a run queue to add the vCPU".
  [[nodiscard]] CpuId least_loaded_general() const {
    CpuId best = 0;
    double best_load = -1.0;
    bool found = false;
    for (CpuId cpu = 0; cpu < queues_.size(); ++cpu) {
      if (is_reserved(cpu)) {
        continue;
      }
      const double load = queues_[cpu]->load();
      if (!found || load < best_load) {
        best = cpu;
        best_load = load;
        found = true;
      }
    }
    if (!found) {
      throw std::runtime_error("CpuTopology: all queues reserved for uLL");
    }
    return best;
  }

 private:
  std::vector<std::unique_ptr<RunQueue>> queues_;
  std::vector<bool> reserved_;
};

}  // namespace horse::sched
