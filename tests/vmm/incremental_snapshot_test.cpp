#include <gtest/gtest.h>

#include "sched/topology.hpp"
#include "vmm/resume_engine.hpp"
#include "vmm/snapshot.hpp"

namespace horse::vmm {
namespace {

SandboxConfig small_config() {
  SandboxConfig config;
  config.name = "fn";
  config.num_vcpus = 1;
  config.memory_mb = 4;  // 64 KiB scaled image = 16 pages
  return config;
}

class IncrementalSnapshotTest : public ::testing::Test {
 protected:
  IncrementalSnapshotTest()
      : topology_(2),
        engine_(topology_, VmmProfile::firecracker()),
        manager_(VmmProfile::firecracker()) {}

  /// Start+pause a sandbox with a deterministic memory pattern.
  std::unique_ptr<Sandbox> make_paused(sched::SandboxId id) {
    auto sandbox = std::make_unique<Sandbox>(id, small_config());
    auto& memory = sandbox->guest_memory();
    for (std::size_t i = 0; i < memory.size(); ++i) {
      memory[i] = static_cast<std::byte>(i & 0xff);
    }
    (void)engine_.start(*sandbox);
    (void)engine_.pause(*sandbox);
    return sandbox;
  }

  sched::CpuTopology topology_;
  ResumeEngine engine_;
  SnapshotManager manager_;
};

TEST_F(IncrementalSnapshotTest, DirtyTrackerMarksPages) {
  DirtyTracker tracker(10 * DirtyTracker::kPageSize);
  EXPECT_EQ(tracker.page_count(), 10u);
  EXPECT_EQ(tracker.dirty_count(), 0u);
  tracker.mark(0);
  tracker.mark(5 * DirtyTracker::kPageSize + 17);
  EXPECT_TRUE(tracker.is_dirty(0));
  EXPECT_TRUE(tracker.is_dirty(5));
  EXPECT_FALSE(tracker.is_dirty(1));
  EXPECT_EQ(tracker.dirty_count(), 2u);
  EXPECT_EQ(tracker.dirty_pages(), (std::vector<std::size_t>{0, 5}));
  tracker.clear();
  EXPECT_EQ(tracker.dirty_count(), 0u);
}

TEST_F(IncrementalSnapshotTest, MarkRangeSpansPages) {
  DirtyTracker tracker(10 * DirtyTracker::kPageSize);
  // Range straddling pages 2..4.
  tracker.mark_range(2 * DirtyTracker::kPageSize + 100,
                     2 * DirtyTracker::kPageSize);
  EXPECT_EQ(tracker.dirty_pages(), (std::vector<std::size_t>{2, 3, 4}));
  tracker.mark_range(0, 0);  // empty range is a no-op
  EXPECT_EQ(tracker.dirty_count(), 3u);
}

TEST_F(IncrementalSnapshotTest, TrackedWriteUpdatesImageAndDirt) {
  std::vector<std::byte> image(4 * DirtyTracker::kPageSize, std::byte{0});
  DirtyTracker tracker(image.size());
  const std::byte payload[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
  tracker.write(image, DirtyTracker::kPageSize - 1, payload, 3);
  EXPECT_EQ(image[DirtyTracker::kPageSize - 1], std::byte{1});
  EXPECT_EQ(image[DirtyTracker::kPageSize + 1], std::byte{3});
  EXPECT_EQ(tracker.dirty_pages(), (std::vector<std::size_t>{0, 1}));
}

TEST_F(IncrementalSnapshotTest, DeltaRoundTripReconstructsImage) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  ASSERT_TRUE(base.has_value());

  // Mutate a few pages through the tracker (resume first: writes happen
  // while running; pause again before the delta).
  ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  DirtyTracker tracker(sandbox->guest_memory().size());
  const std::byte marker[8] = {std::byte{0xde}, std::byte{0xad},
                               std::byte{0xbe}, std::byte{0xef},
                               std::byte{0xca}, std::byte{0xfe},
                               std::byte{0xba}, std::byte{0xbe}};
  tracker.write(sandbox->guest_memory(), 3 * DirtyTracker::kPageSize, marker, 8);
  tracker.write(sandbox->guest_memory(), 9 * DirtyTracker::kPageSize + 42,
                marker, 8);
  ASSERT_TRUE(engine_.pause(*sandbox).is_ok());

  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->pages.size(), 2u);
  EXPECT_EQ(delta->page_data.size(), 2u * DirtyTracker::kPageSize);

  auto restored = manager_.restore_incremental(*base, *delta, 2);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sandbox->guest_memory(), sandbox->guest_memory());
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(IncrementalSnapshotTest, DeltaAgainstWrongBaseRejected) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  ASSERT_TRUE(base.has_value());
  DirtyTracker tracker(sandbox->guest_memory().size());
  tracker.mark(0);
  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  ASSERT_TRUE(delta.has_value());

  Snapshot other_base = *base;
  other_base.checksum ^= 0xff;  // different lineage
  const auto restored = manager_.restore_incremental(other_base, *delta, 2);
  EXPECT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(IncrementalSnapshotTest, CorruptBaseRejected) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  ASSERT_TRUE(base.has_value());
  DirtyTracker tracker(sandbox->guest_memory().size());
  tracker.mark(0);
  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  ASSERT_TRUE(delta.has_value());

  // Same lineage (the recorded checksum still matches the delta's), but
  // one byte of the base image has rotted since take().
  Snapshot rotten_base = *base;
  rotten_base.memory_image[5 * DirtyTracker::kPageSize + 17] ^= std::byte{1};
  const auto restored = manager_.restore_incremental(rotten_base, *delta, 2);
  EXPECT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kInternal);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(IncrementalSnapshotTest, DeltaRequiresPausedSandbox) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  ASSERT_TRUE(engine_.resume(*sandbox).is_ok());
  DirtyTracker tracker(sandbox->guest_memory().size());
  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  EXPECT_FALSE(delta.has_value());
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(IncrementalSnapshotTest, EmptyDeltaRestoresExactBase) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  DirtyTracker tracker(sandbox->guest_memory().size());
  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->pages.empty());
  auto restored = manager_.restore_incremental(*base, *delta, 2);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(SnapshotManager::compute_checksum(restored->sandbox->guest_memory()),
            base->checksum);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

TEST_F(IncrementalSnapshotTest, DeltaSmallerThanFullSnapshotForSmallWorkingSet) {
  auto sandbox = make_paused(1);
  const auto base = manager_.take(*sandbox);
  DirtyTracker tracker(sandbox->guest_memory().size());
  tracker.mark(1);
  const auto delta = manager_.take_delta(*sandbox, *base, tracker);
  ASSERT_TRUE(delta.has_value());
  // 1 dirty page of 16: the delta carries ~6% of the full image.
  EXPECT_LT(delta->page_data.size(), base->memory_image.size() / 8);
  ASSERT_TRUE(engine_.destroy(*sandbox).is_ok());
}

}  // namespace
}  // namespace horse::vmm
