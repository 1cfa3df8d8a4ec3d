#include "workloads/array_filter.hpp"

#include <algorithm>
#include <array>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/rng.hpp"

namespace horse::workloads {

namespace {

// Kept indexes are staged on the stack first, so an array of up to this
// many elements is filtered in one pass and its output is allocated once,
// at its exact size. Elements past the block are counted, then compacted
// straight into the output.
constexpr std::size_t kScratchEntries = 4096;
// The 8-wide block stores a whole lane group at the write cursor, so every
// buffer it writes carries this many entries of slack.
constexpr std::size_t kLanes = 8;

#if defined(__SSE2__)
// For each 8-bit "element > threshold" mask: the set lanes in ascending
// order (zero-padded), how many there are, and their sum.
struct LaneTable {
  alignas(16) std::int32_t lanes[256][kLanes]{};
  std::uint8_t kept[256]{};
  std::uint8_t lane_sum[256]{};
};

constexpr LaneTable make_lane_table() {
  LaneTable table;
  for (unsigned mask = 0; mask < 256; ++mask) {
    unsigned kept = 0;
    unsigned sum = 0;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      if ((mask >> lane) & 1U) {
        table.lanes[mask][kept++] = static_cast<std::int32_t>(lane);
        sum += lane;
      }
    }
    table.kept[mask] = static_cast<std::uint8_t>(kept);
    table.lane_sum[mask] = static_cast<std::uint8_t>(sum);
  }
  return table;
}

constexpr LaneTable kLaneTable = make_lane_table();
#endif

/// Number of i in [begin, end) with payload[i] > threshold.
std::size_t count_greater(const std::int32_t* payload, std::size_t begin,
                          std::size_t end, std::int32_t threshold) noexcept {
  std::size_t count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    count += static_cast<std::size_t>(payload[i] > threshold);
  }
  return count;
}

/// Writes every i in [begin, end) with payload[i] > threshold to `out` in
/// ascending order, adds them to `checksum` and returns how many there
/// were. May write up to kLanes - 1 entries past the last kept one.
std::size_t compact_greater(const std::int32_t* payload, std::size_t begin,
                            std::size_t end, std::int32_t threshold,
                            std::int32_t* out,
                            std::uint64_t& checksum) noexcept {
  std::size_t kept = 0;
  std::size_t i = begin;
#if defined(__SSE2__)
  const __m128i vthreshold = _mm_set1_epi32(threshold);
  for (; i + kLanes <= end; i += kLanes) {
    const __m128i lo = _mm_cmpgt_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(payload + i)),
        vthreshold);
    const __m128i hi = _mm_cmpgt_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(payload + i + 4)),
        vthreshold);
    const auto mask = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(lo)) |
        (_mm_movemask_ps(_mm_castsi128_ps(hi)) << 4));
    const std::int32_t* lanes = kLaneTable.lanes[mask];
    const __m128i base = _mm_set1_epi32(static_cast<std::int32_t>(i));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + kept),
        _mm_add_epi32(base,
                      _mm_load_si128(reinterpret_cast<const __m128i*>(lanes))));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + kept + 4),
                     _mm_add_epi32(base, _mm_load_si128(
                                             reinterpret_cast<const __m128i*>(
                                                 lanes + 4))));
    const std::size_t group_kept = kLaneTable.kept[mask];
    kept += group_kept;
    checksum += group_kept * i + kLaneTable.lane_sum[mask];
  }
#endif
  // Scalar tail (or the whole range without SSE2): every index is stored
  // and the cursor advances by the comparison, so no branch depends on
  // the data.
  for (; i < end; ++i) {
    out[kept] = static_cast<std::int32_t>(i);
    const auto keep = static_cast<std::size_t>(payload[i] > threshold);
    kept += keep;
    checksum += i & (0 - keep);
  }
  return kept;
}

}  // namespace

Response ArrayFilterFunction::invoke(const Request& request) {
  const std::int32_t* payload = request.payload.data();
  const std::size_t size = request.payload.size();
  const std::int32_t threshold = request.threshold;
  const std::size_t head = std::min(size, kScratchEntries);

  // Left uninitialised on purpose: only entries the kernel wrote are read
  // back, so zeroing 16 KB on every call would buy nothing.
  std::array<std::int32_t, kScratchEntries + kLanes> scratch;
  std::uint64_t checksum = 0;
  const std::size_t head_kept =
      compact_greater(payload, 0, head, threshold, scratch.data(), checksum);
  const std::size_t kept =
      head_kept + count_greater(payload, head, size, threshold);

  Response response;
  response.indexes.resize(kept + kLanes);
  std::copy_n(scratch.data(), head_kept, response.indexes.data());
  compact_greater(payload, head, size, threshold,
                  response.indexes.data() + head_kept, checksum);
  response.indexes.resize(kept);
  response.allowed = kept != 0;
  response.checksum = checksum;
  return response;
}

std::vector<std::int32_t> ArrayFilterFunction::default_payload(
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::int32_t> payload;
  payload.reserve(kDefaultArraySize);
  for (std::size_t i = 0; i < kDefaultArraySize; ++i) {
    payload.push_back(static_cast<std::int32_t>(rng.bounded(1'000'000)));
  }
  return payload;
}

}  // namespace horse::workloads
