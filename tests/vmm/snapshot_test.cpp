#include "vmm/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "sched/topology.hpp"
#include "vmm/boot.hpp"
#include "vmm/resume_engine.hpp"

namespace horse::vmm {
namespace {

SandboxConfig small_config() {
  SandboxConfig config;
  config.name = "fn";
  config.num_vcpus = 2;
  config.memory_mb = 4;
  return config;
}

TEST(SnapshotTest, TakeRequiresPausedSandbox) {
  SnapshotManager manager(VmmProfile::firecracker());
  Sandbox sandbox(1, small_config());
  const auto snapshot = manager.take(sandbox);
  EXPECT_FALSE(snapshot.has_value());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RoundTripPreservesMemoryImage) {
  sched::CpuTopology topology(2);
  ResumeEngine engine(topology, VmmProfile::firecracker());
  SnapshotManager manager(VmmProfile::firecracker());

  Sandbox sandbox(1, small_config());
  // Write a recognisable pattern into guest memory.
  auto& memory = sandbox.guest_memory();
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory[i] = static_cast<std::byte>(i * 7 & 0xff);
  }
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());

  const auto snapshot = manager.take(sandbox);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->memory_image.size(), memory.size());
  EXPECT_EQ(snapshot->checksum,
            SnapshotManager::compute_checksum(snapshot->memory_image));

  auto restored = manager.restore(*snapshot, 2);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  ASSERT_NE(restored->sandbox, nullptr);
  EXPECT_EQ(restored->sandbox->id(), 2u);
  EXPECT_EQ(restored->sandbox->guest_memory(), memory);
  EXPECT_EQ(SnapshotManager::compute_checksum(restored->sandbox->guest_memory()),
            snapshot->checksum);
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());
}

TEST(SnapshotTest, RestoreReportsBothTimeComponents) {
  SnapshotManager manager(VmmProfile::firecracker());
  Snapshot snapshot;
  snapshot.config = small_config();
  snapshot.memory_image.resize(1024, std::byte{0});
  // Restore verifies integrity, so a hand-built snapshot needs a checksum.
  snapshot.checksum = SnapshotManager::compute_checksum(snapshot.memory_image);
  auto restored = manager.restore(snapshot, 5);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  EXPECT_GE(restored->copy_time, 0);
  EXPECT_GT(restored->modelled_time, 0);
  // Modelled latency stays within ±10% of the profile constant.
  const auto nominal = VmmProfile::firecracker().snapshot_restore;
  EXPECT_GE(restored->modelled_time, nominal * 9 / 10);
  EXPECT_LE(restored->modelled_time, nominal * 11 / 10);
  EXPECT_EQ(restored->total_time(),
            restored->copy_time + restored->modelled_time);
}

TEST(SnapshotTest, ChecksumDetectsCorruption) {
  std::vector<std::byte> image(256, std::byte{1});
  const auto original = SnapshotManager::compute_checksum(image);
  image[100] = std::byte{2};
  EXPECT_NE(SnapshotManager::compute_checksum(image), original);
}

// Deterministic, non-uniform content so neighbouring words differ.
std::vector<std::byte> patterned_image(std::size_t size) {
  std::vector<std::byte> image(size);
  for (std::size_t i = 0; i < size; ++i) {
    image[i] = static_cast<std::byte>((i * 131 + (i >> 8) * 7 + 3) & 0xff);
  }
  return image;
}

TEST(ChecksumPropertyTest, EverySingleByteChangeIsDetected) {
  for (const std::size_t size :
       {0u, 1u, 7u, 31u, 32u, 33u, 4101u, 32768u}) {
    std::vector<std::byte> image = patterned_image(size);
    const auto original = SnapshotManager::compute_checksum(image);
    for (std::size_t offset = 0; offset < size; ++offset) {
      const std::byte saved = image[offset];
      // Small images try every other value of the byte; large ones flip a
      // bit that walks through all eight positions as the offset advances.
      const unsigned first = size <= 33 ? 1 : 1u << (offset % 8);
      const unsigned last = size <= 33 ? 255 : first;
      for (unsigned delta = first; delta <= last; ++delta) {
        image[offset] = saved ^ static_cast<std::byte>(delta);
        ASSERT_NE(SnapshotManager::compute_checksum(image), original)
            << "size " << size << " offset " << offset << " xor " << delta;
      }
      image[offset] = saved;
    }
    EXPECT_EQ(SnapshotManager::compute_checksum(image), original);
  }
}

TEST(ChecksumPropertyTest, TopBitFlipsInTwoWordsOfOneLaneAreDetected) {
  // Words 0 and 4 (and 1 and 9) land in the same lane of the 32-byte
  // stripe. Under a plain `(h ^ w) * p` a bit-63 difference passes through
  // the multiply unchanged, so the second flip would cancel the first.
  std::vector<std::byte> image = patterned_image(4096);
  const auto original = SnapshotManager::compute_checksum(image);
  const auto flip_bit63 = [&image](std::size_t word) {
    std::uint64_t value;
    std::memcpy(&value, image.data() + word * 8, 8);
    value ^= std::uint64_t{1} << 63;
    std::memcpy(image.data() + word * 8, &value, 8);
  };
  for (const auto& [a, b] : {std::pair{0, 4}, std::pair{1, 9},
                             std::pair{2, 126}}) {
    flip_bit63(a);
    flip_bit63(b);
    EXPECT_NE(SnapshotManager::compute_checksum(image), original)
        << "words " << a << " and " << b;
    flip_bit63(a);
    flip_bit63(b);
  }
  EXPECT_EQ(SnapshotManager::compute_checksum(image), original);
}

TEST(ChecksumPropertyTest, LengthIsPartOfTheChecksum) {
  for (std::size_t n = 0; n <= 130; ++n) {
    const std::vector<std::byte> shorter(n, std::byte{0});
    const std::vector<std::byte> longer(n + 1, std::byte{0});
    EXPECT_NE(SnapshotManager::compute_checksum(shorter),
              SnapshotManager::compute_checksum(longer))
        << n << " vs " << n + 1 << " zero bytes";
  }
}

TEST(ChecksumPropertyTest, Deterministic) {
  const std::vector<std::byte> image = patterned_image(32768);
  const std::vector<std::byte> copy = image;
  const auto first = SnapshotManager::compute_checksum(image);
  EXPECT_EQ(SnapshotManager::compute_checksum(image), first);
  EXPECT_EQ(SnapshotManager::compute_checksum(copy), first);
}

TEST(SnapshotTest, RestoreRefusesOneFlippedByte) {
  SnapshotManager manager(VmmProfile::firecracker());
  Snapshot snapshot;
  snapshot.config = small_config();
  snapshot.memory_image = patterned_image(32768);
  snapshot.checksum = SnapshotManager::compute_checksum(snapshot.memory_image);
  snapshot.memory_image[12345] ^= std::byte{0x10};
  const auto restored = manager.restore(snapshot, 5);
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kInternal);
}

TEST(SnapshotTest, RestoredSandboxIsStartable) {
  sched::CpuTopology topology(2);
  ResumeEngine engine(topology, VmmProfile::firecracker());
  SnapshotManager manager(VmmProfile::firecracker());

  Sandbox sandbox(1, small_config());
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());
  const auto snapshot = manager.take(sandbox);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());

  auto restored = manager.restore(*snapshot, 2);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  ASSERT_TRUE(engine.start(*restored->sandbox).is_ok());
  EXPECT_EQ(restored->sandbox->state(), SandboxState::kRunning);
  ASSERT_TRUE(engine.destroy(*restored->sandbox).is_ok());
}

TEST(BootModelTest, ColdBootAroundProfileConstant) {
  BootModel boot(VmmProfile::firecracker());
  auto result = boot.cold_boot(1, small_config());
  ASSERT_NE(result.sandbox, nullptr);
  const auto nominal = VmmProfile::firecracker().cold_boot;
  EXPECT_GE(result.boot_time, nominal * 85 / 100);
  EXPECT_LE(result.boot_time, nominal * 125 / 100);
}

TEST(BootModelTest, XenColdBootSlowerThanFirecracker) {
  EXPECT_GT(VmmProfile::xen().cold_boot, VmmProfile::firecracker().cold_boot);
}

TEST(VmmProfileTest, FlavourConstantsSane) {
  const auto fc = VmmProfile::firecracker();
  const auto xen = VmmProfile::xen();
  EXPECT_EQ(fc.kind, VmmKind::kFirecracker);
  EXPECT_EQ(xen.kind, VmmKind::kXen);
  // Table 1 anchors.
  EXPECT_EQ(fc.cold_boot, 1'500 * util::kMillisecond);
  EXPECT_EQ(fc.snapshot_restore, 1'300 * util::kMicrosecond);
  EXPECT_GT(xen.resume_control_plane, fc.resume_control_plane);
}

}  // namespace
}  // namespace horse::vmm
