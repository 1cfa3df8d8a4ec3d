// Concurrency stress: multiple threads drive pause/resume cycles of
// distinct sandboxes against shared engines and topologies. These tests
// verify the engine-level serialization contract (global lock) and the
// per-queue locking under real contention — the properties TSan-style
// reasoning depends on but unit tests cannot exercise.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/horse_resume.hpp"
#include "vmm/resume_engine.hpp"

namespace horse {
namespace {

std::unique_ptr<vmm::Sandbox> make_sandbox(sched::SandboxId id,
                                           std::uint32_t vcpus, bool ull) {
  vmm::SandboxConfig config;
  config.name = "stress";
  config.num_vcpus = vcpus;
  config.memory_mb = 1;
  config.ull = ull;
  return std::make_unique<vmm::Sandbox>(id, config);
}

TEST(ConcurrentStressTest, VanillaEngineParallelCycles) {
  sched::CpuTopology topology(8);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());

  constexpr int kThreads = 4;
  constexpr int kCycles = 200;
  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  for (int t = 0; t < kThreads; ++t) {
    sandboxes.push_back(make_sandbox(static_cast<sched::SandboxId>(t + 1),
                                     1 + static_cast<std::uint32_t>(t), false));
    ASSERT_TRUE(engine.start(*sandboxes.back()).is_ok());
  }

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        vmm::Sandbox& sandbox = *sandboxes[static_cast<std::size_t>(t)];
        for (int cycle = 0; cycle < kCycles; ++cycle) {
          if (!engine.pause(sandbox).is_ok() ||
              !engine.resume(sandbox).is_ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);

  // Post-conditions: every vCPU runnable on a sorted queue, totals match.
  std::size_t queued = 0;
  for (sched::CpuId cpu = 0; cpu < topology.num_cpus(); ++cpu) {
    EXPECT_TRUE(topology.queue(cpu).is_sorted());
    queued += topology.queue(cpu).size();
  }
  EXPECT_EQ(queued, 1u + 2u + 3u + 4u);
  for (auto& sandbox : sandboxes) {
    EXPECT_TRUE(engine.destroy(*sandbox).is_ok());
  }
}

TEST(ConcurrentStressTest, HorseEngineParallelCycles) {
  sched::CpuTopology topology(8);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());

  constexpr int kThreads = 4;
  constexpr int kCycles = 150;
  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  for (int t = 0; t < kThreads; ++t) {
    sandboxes.push_back(make_sandbox(static_cast<sched::SandboxId>(t + 1), 2,
                                     /*ull=*/true));
    ASSERT_TRUE(engine.start(*sandboxes.back()).is_ok());
  }

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        vmm::Sandbox& sandbox = *sandboxes[static_cast<std::size_t>(t)];
        for (int cycle = 0; cycle < kCycles; ++cycle) {
          if (!engine.pause(sandbox).is_ok()) {
            failures.fetch_add(1);
            return;
          }
          // The resume hits the stale-index fallback whenever another
          // thread's resume mutated the shared ull queue in between —
          // exactly the §4.1.3 contention scenario.
          if (!engine.resume(sandbox).is_ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);

  EXPECT_TRUE(topology.queue(7).is_sorted());
  EXPECT_EQ(topology.queue(7).size(), 8u);  // 4 sandboxes x 2 vCPUs
  EXPECT_EQ(engine.ull_manager().tracked_count(), 0u);
  for (auto& sandbox : sandboxes) {
    EXPECT_TRUE(engine.destroy(*sandbox).is_ok());
  }
}

TEST(ConcurrentStressTest, MixedUllAndPlainSandboxes) {
  sched::CpuTopology topology(8);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  for (int t = 0; t < kThreads; ++t) {
    sandboxes.push_back(make_sandbox(static_cast<sched::SandboxId>(t + 1), 3,
                                     /*ull=*/t % 2 == 0));
    ASSERT_TRUE(engine.start(*sandboxes.back()).is_ok());
  }
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        vmm::Sandbox& sandbox = *sandboxes[static_cast<std::size_t>(t)];
        for (int cycle = 0; cycle < 100; ++cycle) {
          if (!engine.pause(sandbox).is_ok() ||
              !engine.resume(sandbox).is_ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  // uLL vCPUs confined to the reserved queue; plain ones never on it.
  for (const sched::Vcpu& vcpu : topology.queue(7).list()) {
    EXPECT_EQ(vcpu.sandbox % 2, 1u);  // ids 1 and 3 are the ull sandboxes
  }
  for (auto& sandbox : sandboxes) {
    EXPECT_TRUE(engine.destroy(*sandbox).is_ok());
  }
}

TEST(ConcurrentStressTest, RunQueueDirectContention) {
  // Raw queue-level mutual exclusion: threads hammer one queue with
  // insert/remove; counts and sortedness must survive.
  sched::RunQueue queue(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::unique_ptr<sched::Vcpu>>> storage(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto& mine = storage[static_cast<std::size_t>(t)];
        for (int i = 0; i < kPerThread; ++i) {
          auto vcpu = std::make_unique<sched::Vcpu>();
          vcpu->credit = static_cast<sched::Credit>((t * 7919 + i) % 1000);
          {
            util::LockGuard guard(queue.lock());
            queue.insert_sorted(*vcpu);
          }
          queue.update_load_enqueue();
          if (i % 3 == 0) {
            util::LockGuard guard(queue.lock());
            queue.remove(*vcpu);
            vcpu.reset();
          }
          if (vcpu) {
            mine.push_back(std::move(vcpu));
          }
        }
      });
    }
  }
  std::size_t kept = 0;
  for (const auto& per_thread : storage) {
    kept += per_thread.size();
  }
  EXPECT_EQ(queue.size(), kept);
  EXPECT_TRUE(queue.is_sorted());
  EXPECT_GT(queue.load(), 0.0);
  queue.list().clear();
}

}  // namespace
}  // namespace horse
