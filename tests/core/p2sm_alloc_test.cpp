// Steady-state allocation-freedom of the 𝒫²𝒮ℳ maintenance path.
//
// The flat run table recycles its capacity across rebuilds and the B
// snapshot lives in one reused SoA block that only grows, so once an
// index has been through a warm-up rebuild at a given queue size, every
// further rebuild() and merge() at stable sizes must touch the heap
// exactly zero times.
//
// This binary (and only this binary, plus the zero-alloc benches) compiles
// src/util/alloc_hook.cpp into its own sources, replacing the global
// operator new/delete with counting versions. A canary test proves the
// hook is live, so a zero reading means "no allocations", never "hook not
// installed". The binary is excluded from sanitizer presets: ASan/TSan
// interpose malloc and the counts would stop meaning one thing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/p2sm.hpp"
#include "sched/run_queue.hpp"
#include "util/alloc_counter.hpp"

namespace horse::core {
namespace {

/// Allocations observed on this thread between start() and delta().
class AllocProbe {
 public:
  void start() noexcept {
    allocs_ = util::thread_alloc_count();
    frees_ = util::thread_free_count();
  }
  [[nodiscard]] std::uint64_t alloc_delta() const noexcept {
    return util::thread_alloc_count() - allocs_;
  }
  [[nodiscard]] std::uint64_t free_delta() const noexcept {
    return util::thread_free_count() - frees_;
  }

 private:
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
};

TEST(P2smAllocHookTest, CountingHookIsLive) {
  AllocProbe probe;
  probe.start();
  // Direct calls to the allocation functions: a new-expression with a
  // matching delete may legally be elided by the optimizer, a call to
  // ::operator new may not.
  void* raw = ::operator new(64);
  const std::uint64_t after_new = probe.alloc_delta();
  ::operator delete(raw);
  EXPECT_GE(after_new, 1u) << "operator new replacement is not installed; "
                              "every other assertion here is meaningless";
  EXPECT_GE(probe.free_delta(), 1u);
}

class P2smAllocTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBSize = 24;
  static constexpr std::size_t kASize = 8;

  void SetUp() override {
    storage_.reserve(kBSize + kASize + 4);
    for (std::size_t i = 0; i < kBSize; ++i) {
      sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(10 * i));
      b_.insert_sorted(vcpu);
    }
    for (std::size_t i = 0; i < kASize; ++i) {
      sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(25 * i + 3));
      a_vcpus_.push_back(&vcpu);
      a_.push_back(vcpu);  // ascending credits: already sorted
    }
  }

  sched::Vcpu& make_vcpu(sched::Credit credit) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->id = static_cast<sched::VcpuId>(storage_.size());
    vcpu->credit = credit;
    storage_.push_back(std::move(vcpu));
    return *storage_.back();
  }

  /// Unsplice every A vCPU back out of B into A (sorted), so another
  /// rebuild+merge cycle can run. Allocation-free by construction.
  void restore_a_from_b() {
    for (sched::Vcpu* vcpu : a_vcpus_) {
      b_.remove(*vcpu);
    }
    for (sched::Vcpu* vcpu : a_vcpus_) {
      auto it = a_.begin();
      while (it != a_.end() && it->credit <= vcpu->credit) {
        ++it;
      }
      a_.insert(it, *vcpu);
    }
  }

  std::vector<std::unique_ptr<sched::Vcpu>> storage_;
  std::vector<sched::Vcpu*> a_vcpus_;
  sched::VcpuList a_;
  sched::RunQueue b_{0};
  P2smIndex index_;
  SequentialMergeExecutor executor_;
  AllocProbe probe_;
};

TEST_F(P2smAllocTest, SteadyStateRebuildDoesNotAllocate) {
  index_.rebuild(a_, b_);  // warm-up: sizes the arena and the run table
  probe_.start();
  for (int i = 0; i < 100; ++i) {
    index_.rebuild(a_, b_);
  }
  const std::uint64_t allocs = probe_.alloc_delta();
  const std::uint64_t frees = probe_.free_delta();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(frees, 0u);
  EXPECT_EQ(index_.stats().rebuilds, 101u);
}

TEST_F(P2smAllocTest, SteadyStateStaleRebuildDoesNotAllocate) {
  // Step ④'s shape: B churns under a paused sandbox's index, and the stale
  // index is rebuilt. One warm-up round sizes the arena for the +1
  // high-water mark; after that, churn plus rebuild never allocates.
  index_.rebuild(a_, b_);
  sched::Vcpu& churn = make_vcpu(15);
  b_.insert_sorted(churn);
  index_.rebuild(a_, b_);
  b_.remove(churn);
  index_.rebuild(a_, b_);

  probe_.start();
  bool freshness_as_expected = true;
  for (int i = 0; i < 100; ++i) {
    b_.insert_sorted(churn);
    freshness_as_expected = freshness_as_expected && !index_.fresh(b_);
    index_.rebuild(a_, b_);
    b_.remove(churn);
    index_.rebuild(a_, b_);
    freshness_as_expected = freshness_as_expected && index_.fresh(b_);
  }
  const std::uint64_t allocs = probe_.alloc_delta();
  EXPECT_TRUE(freshness_as_expected);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(index_.stats().rebuilds, 203u);
}

TEST_F(P2smAllocTest, SteadyStateMergeCycleDoesNotAllocate) {
  // Warm-up cycle: sizes the arena, the run table, and the task buffer.
  index_.rebuild(a_, b_);
  ASSERT_TRUE(index_.merge(a_, b_, executor_).is_ok());
  restore_a_from_b();

  probe_.start();
  bool all_ok = true;
  for (int i = 0; i < 50; ++i) {
    index_.rebuild(a_, b_);
    all_ok = all_ok && index_.merge(a_, b_, executor_).is_ok();
    restore_a_from_b();
  }
  const std::uint64_t allocs = probe_.alloc_delta();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(b_.is_sorted());
}

}  // namespace
}  // namespace horse::core
