// Fault site `sched.epoch.stall`: a reclaim attempt that observes a
// stalled reader must decline the epoch advance. Garbage stays pending —
// bounded by what was retired, never freed under a live reader (no UAF;
// the ASan preset enforces the latter for real) — and the moment the
// stall clears, maintenance drains everything.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/horse_resume.hpp"
#include "util/epoch.hpp"
#include "util/fault_injection.hpp"

namespace horse::core {
namespace {

using util::FaultInjector;
using util::ScopedFault;

struct CountedNode {
  explicit CountedNode(std::atomic<int>& counter) : destroyed(&counter) {
    retire.owner = this;
    retire.destroy = [](void* owner) {
      auto* node = static_cast<CountedNode*>(owner);
      node->destroyed->fetch_add(1);
      delete node;
    };
  }
  std::atomic<int>* destroyed;
  util::EpochRetireNode retire;
};

class EpochFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

TEST_F(EpochFaultTest, StallFreezesEpochAndBoundsGarbage) {
  util::EpochReclaimer reclaimer;
  std::atomic<int> destroyed{0};
  constexpr int kNodes = 8;
  {
    auto fault = ScopedFault::always("sched.epoch.stall");
    for (int i = 0; i < kNodes; ++i) {
      reclaimer.retire(&(new CountedNode(destroyed))->retire);
      EXPECT_EQ(reclaimer.try_reclaim(), 0u);
    }
    // Declined on every attempt: the epoch never advanced, nothing was
    // freed, and the garbage is exactly the outstanding retirements.
    EXPECT_EQ(reclaimer.epoch(), 0u);
    EXPECT_EQ(reclaimer.reclaimed(), 0u);
    EXPECT_EQ(reclaimer.pending(), static_cast<std::uint64_t>(kNodes));
    EXPECT_EQ(destroyed.load(), 0);
  }
  // Stall cleared: three advances walk the horizon past the frozen
  // bucket and the whole backlog drains.
  std::size_t freed = 0;
  for (int i = 0; i < 3 && freed == 0; ++i) {
    freed = reclaimer.try_reclaim();
  }
  EXPECT_EQ(freed, static_cast<std::size_t>(kNodes));
  EXPECT_EQ(destroyed.load(), kNodes);
  EXPECT_EQ(reclaimer.pending(), 0u);
}

TEST_F(EpochFaultTest, NthStallSkipsExactlyOneRound) {
  util::EpochReclaimer reclaimer;
  std::atomic<int> destroyed{0};
  reclaimer.retire(&(new CountedNode(destroyed))->retire);

  auto fault = ScopedFault::nth("sched.epoch.stall", 1);
  EXPECT_EQ(reclaimer.try_reclaim(), 0u);  // the injected stall
  std::size_t freed = 0;
  for (int i = 0; i < 3 && freed == 0; ++i) {
    freed = reclaimer.try_reclaim();  // recovery needs no reset
  }
  EXPECT_EQ(freed, 1u);
  EXPECT_EQ(destroyed.load(), 1);
}

TEST_F(EpochFaultTest, ResumePathSurvivesAPermanentStall) {
  // Whole-engine run with reclamation permanently declined: every
  // destroyed uLL sandbox retires its index node, none is ever freed, and
  // the resumes around them must stay correct (the retired nodes are
  // unreachable for new lookups, so deferred-forever is safe, just
  // unbounded in memory — bounded here by the cycle count).
  sched::CpuTopology topology(4);
  HorseConfig config;
  config.num_ull_runqueues = 1;
  HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker(), config,
                           HorseFeatures::all());
  vmm::SandboxConfig sandbox_config;
  sandbox_config.name = "probe";
  sandbox_config.num_vcpus = 2;
  sandbox_config.memory_mb = 1;
  sandbox_config.ull = true;
  vmm::Sandbox probe(1, sandbox_config);
  ASSERT_TRUE(engine.start(probe).is_ok());

  util::EpochReclaimer& epoch = topology.queue(3).epoch();
  constexpr int kCycles = 6;
  {
    auto fault = ScopedFault::always("sched.epoch.stall");
    for (int i = 0; i < kCycles; ++i) {
      ASSERT_TRUE(engine.pause(probe).is_ok());
      ASSERT_TRUE(engine.resume(probe).is_ok());
      // A short-lived neighbour: one pause/resume, re-parked, destroyed.
      vmm::Sandbox victim(static_cast<sched::SandboxId>(100 + i),
                          sandbox_config);
      ASSERT_TRUE(engine.start(victim).is_ok());
      ASSERT_TRUE(engine.pause(victim).is_ok());
      ASSERT_TRUE(engine.resume(victim).is_ok());
      ASSERT_TRUE(engine.pause(victim).is_ok());
      engine.ull_manager().release(victim);
      ASSERT_TRUE(engine.destroy(victim).is_ok());
    }
    EXPECT_EQ(epoch.reclaimed(), 0u);
    EXPECT_GE(epoch.retired(), static_cast<std::uint64_t>(kCycles));
    EXPECT_EQ(epoch.pending(), epoch.retired());
  }

  // Stall cleared: the next maintenance passes (pause-time track pumps
  // the reclaimer once per cycle) start freeing the backlog.
  const std::uint64_t backlog = epoch.pending();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.pause(probe).is_ok());
    ASSERT_TRUE(engine.resume(probe).is_ok());
  }
  EXPECT_GT(epoch.reclaimed(), 0u);
  EXPECT_LT(epoch.pending(), backlog + 4);
  ASSERT_TRUE(engine.destroy(probe).is_ok());
  // Engine/topology teardown drains the rest; ASan would flag any leak
  // or double free.
}

}  // namespace
}  // namespace horse::core
