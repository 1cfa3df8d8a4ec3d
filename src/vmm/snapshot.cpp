#include "vmm/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "util/fault_injection.hpp"

namespace horse::vmm {

namespace {

// xxHash64's primes: P1 and P2 are odd, so multiplying by them is a
// bijection on 64-bit words.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

// Bijective in `acc` for a fixed word and in `word` for a fixed acc. The
// rotate moves bit 63 of the sum down before the multiply, so flips of the
// top bit in two words of one lane do not cancel (they would under a plain
// `(acc ^ w) * p`).
constexpr std::uint64_t round(std::uint64_t acc, std::uint64_t word) noexcept {
  return rotl(acc + word * kPrime2, 31) * kPrime1;
}

// Folds one more value into the running hash; bijective in both arguments.
constexpr std::uint64_t fold(std::uint64_t hash, std::uint64_t value) noexcept {
  return (hash ^ round(0, value)) * kPrime1 + kPrime4;
}

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

std::uint64_t SnapshotManager::compute_checksum(
    const std::vector<std::byte>& image) noexcept {
  // Four independent lanes of 8-byte words, so the multiply chains overlap
  // instead of serialising on one accumulator. Every step from a word to
  // the result is a bijection while the rest of the image is fixed, so a
  // change confined to one aligned word (or one tail byte) always changes
  // the checksum.
  const std::byte* p = image.data();
  const std::size_t n = image.size();
  const std::byte* const stripes_end = p + (n & ~std::size_t{31});
  std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  for (; p != stripes_end; p += 32) {
    lane[0] = round(lane[0], load_word(p));
    lane[1] = round(lane[1], load_word(p + 8));
    lane[2] = round(lane[2], load_word(p + 16));
    lane[3] = round(lane[3], load_word(p + 24));
  }
  std::uint64_t hash = kPrime5;
  for (const std::uint64_t acc : lane) {
    hash = fold(hash, acc);
  }
  const std::byte* const end = image.data() + n;
  for (; end - p >= 8; p += 8) {
    hash = fold(hash, load_word(p));
  }
  for (; p != end; ++p) {
    hash = rotl(hash ^ (static_cast<std::uint64_t>(*p) * kPrime5), 11) *
           kPrime1;
  }
  hash += n;
  // Avalanche, so nearby images spread over the whole 64 bits.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

util::Status SnapshotManager::verify(const Snapshot& snapshot) {
  // Integrity gate: refuse an image whose checksum drifted from the one
  // recorded at take() time. The fault site flips the computed value —
  // equivalent to a single corrupted byte without damaging the caller's
  // snapshot object.
  std::uint64_t computed = compute_checksum(snapshot.memory_image);
  if (HORSE_FAULT_POINT("snapshot.restore.corrupt")) {
    computed = ~computed;
  }
  if (computed != snapshot.checksum) {
    return util::Status{util::StatusCode::kInternal,
                        "restore: memory image checksum mismatch "
                        "(snapshot corrupt)"};
  }
  return util::Status::ok();
}

util::Expected<Snapshot> SnapshotManager::take(const Sandbox& sandbox) {
  if (sandbox.state() != SandboxState::kPaused) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "snapshot: sandbox must be paused"};
  }
  Snapshot snapshot;
  snapshot.config = sandbox.config();
  snapshot.memory_image = sandbox.guest_memory();
  snapshot.checksum = compute_checksum(snapshot.memory_image);
  return snapshot;
}

void DirtyTracker::mark_range(std::size_t offset, std::size_t length) {
  if (length == 0) {
    return;
  }
  const std::size_t first = offset / kPageSize;
  const std::size_t last = (offset + length - 1) / kPageSize;
  for (std::size_t page = first; page <= last; ++page) {
    dirty_.at(page) = true;
  }
}

void DirtyTracker::write(std::vector<std::byte>& image, std::size_t offset,
                         const std::byte* data, std::size_t length) {
  std::copy(data, data + length,
            image.begin() + static_cast<std::ptrdiff_t>(offset));
  mark_range(offset, length);
}

std::size_t DirtyTracker::dirty_count() const noexcept {
  std::size_t count = 0;
  for (const bool dirty : dirty_) {
    if (dirty) {
      ++count;
    }
  }
  return count;
}

std::vector<std::size_t> DirtyTracker::dirty_pages() const {
  std::vector<std::size_t> pages;
  for (std::size_t page = 0; page < dirty_.size(); ++page) {
    if (dirty_[page]) {
      pages.push_back(page);
    }
  }
  return pages;
}

util::Expected<DeltaSnapshot> SnapshotManager::take_delta(
    const Sandbox& sandbox, const Snapshot& base, const DirtyTracker& tracker) {
  if (sandbox.state() != SandboxState::kPaused) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "delta snapshot: sandbox must be paused"};
  }
  const auto& memory = sandbox.guest_memory();
  if (memory.size() != base.memory_image.size()) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "delta snapshot: image size differs from base"};
  }
  DeltaSnapshot delta;
  delta.base_checksum = base.checksum;
  delta.pages = tracker.dirty_pages();
  delta.page_data.reserve(delta.pages.size() * DirtyTracker::kPageSize);
  for (const std::size_t page : delta.pages) {
    const std::size_t begin = page * DirtyTracker::kPageSize;
    const std::size_t end =
        std::min(begin + DirtyTracker::kPageSize, memory.size());
    delta.page_data.insert(delta.page_data.end(), memory.begin() + begin,
                           memory.begin() + end);
  }
  return delta;
}

util::Expected<RestoreResult> SnapshotManager::restore_incremental(
    const Snapshot& base, const DeltaSnapshot& delta,
    sched::SandboxId next_id) {
  if (delta.base_checksum != base.checksum) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "incremental restore: delta does not match base"};
  }
  // Verified before the stopwatch, as in restore(): copy_time is the copy.
  HORSE_RETURN_IF_ERROR(verify(base));
  RestoreResult result;
  util::Stopwatch watch;
  result.sandbox = std::make_unique<Sandbox>(next_id, base.config);
  auto& memory = result.sandbox->guest_memory();
  memory = base.memory_image;
  std::size_t cursor = 0;
  for (const std::size_t page : delta.pages) {
    const std::size_t begin = page * DirtyTracker::kPageSize;
    const std::size_t length =
        std::min(DirtyTracker::kPageSize, memory.size() - begin);
    std::copy(delta.page_data.begin() + static_cast<std::ptrdiff_t>(cursor),
              delta.page_data.begin() +
                  static_cast<std::ptrdiff_t>(cursor + length),
              memory.begin() + static_cast<std::ptrdiff_t>(begin));
    cursor += length;
  }
  result.copy_time = watch.elapsed();
  // Device re-init is the same whether the image came whole or as
  // base+delta; what shrinks with the working set is the (real) copy.
  const double jitter = rng_.normal(1.0, 0.02);
  result.modelled_time = static_cast<util::Nanos>(
      static_cast<double>(profile_.snapshot_restore) *
      std::clamp(jitter, 0.9, 1.1));
  return result;
}

util::Expected<RestoreResult> SnapshotManager::restore(
    const Snapshot& snapshot, sched::SandboxId next_id) {
  HORSE_RETURN_IF_ERROR(verify(snapshot));

  RestoreResult result;

  util::Stopwatch watch;
  result.sandbox = std::make_unique<Sandbox>(next_id, snapshot.config);
  auto& memory = result.sandbox->guest_memory();
  memory.resize(snapshot.memory_image.size());
  std::copy(snapshot.memory_image.begin(), snapshot.memory_image.end(),
            memory.begin());
  result.copy_time = watch.elapsed();

  // Device re-init and lazy-mapping latency we cannot execute without a
  // hypervisor: sampled around the profile constant (±2%), matching the
  // paper's observed run-to-run variance.
  const double jitter = rng_.normal(1.0, 0.02);
  result.modelled_time = static_cast<util::Nanos>(
      static_cast<double>(profile_.snapshot_restore) *
      std::clamp(jitter, 0.9, 1.1));
  return result;
}

}  // namespace horse::vmm
