// Branchless / SIMD-assisted credit comparisons for the resume hot path.
//
// The 𝒫²𝒮ℳ anchor search (upper_bound over the creditsB snapshot) sits
// inside rebuild windows measured in nanoseconds, where a mispredicted
// branch (~15 cycles) costs as much as the comparison loop itself.
// Credits arriving from a just-resumed sandbox are effectively random
// relative to queue contents, so the classic `if (mid < key)` binary
// search mispredicts ~50% of its steps. The routines here replace that with:
//
//  * branchless_upper_bound — a uniform-shape halving loop whose two
//    updates hang off one comparison, which GCC/Clang compile to cmov; no
//    data-dependent branches, identical results to std::upper_bound on
//    sorted input.
//  * simd_count_le — vectorized "how many elements <= key". On a sorted
//    array that count IS the upper_bound index, and for the short arrays
//    the hot path sees (a handful of runs in B) a linear SIMD count beats
//    log-n probing because every load is sequential and predictable.
//    Compiled with AVX2/SSE4.2 only when the build already targets those
//    ISAs (we add no -m flags); otherwise an unrolled scalar form that
//    still compiles branch-free.
//  * credit_upper_bound — the hybrid the callers use: linear SIMD count
//    below kLinearCutoff, branchless halving above.
//
// Everything here is allocation-free, noexcept, and header-only so the
// comparisons inline into the merge loops.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__SSE4_2__)
#include <immintrin.h>
#endif

namespace horse::sched::credit_scan {

/// Count of leading entries to keep before `key`'s insertion point, i.e.
/// std::upper_bound(first, first + n, key) - first, on sorted input.
template <typename T>
[[nodiscard]] inline std::size_t branchless_upper_bound(
    const T* first, std::size_t n, T key) noexcept {
  const T* base = first;
  while (n > 1) {
    const std::size_t half = n / 2;
    // One comparison feeds both updates -> cmov, never a branch.
    base = (base[half - 1] <= key) ? base + half : base;
    n -= half;
  }
  if (n == 1 && *base <= key) ++base;
  return static_cast<std::size_t>(base - first);
}

/// Number of elements <= key, order-free: usable on sorted input as an
/// upper_bound index. int64 credits only (the Credit representation).
[[nodiscard]] inline std::size_t simd_count_le(const std::int64_t* first,
                                               std::size_t n,
                                               std::int64_t key) noexcept {
  std::size_t count = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256i vkey = _mm256_set1_epi64x(key);
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(first + i));
    // (v > key) per lane; lanes NOT greater are the <= ones.
    const __m256i gt = _mm256_cmpgt_epi64(v, vkey);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(gt));
    count += 4 - static_cast<std::size_t>(__builtin_popcount(mask));
  }
#elif defined(__SSE4_2__)
  const __m128i vkey = _mm_set1_epi64x(key);
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(first + i));
    const __m128i gt = _mm_cmpgt_epi64(v, vkey);
    const int mask = _mm_movemask_pd(_mm_castsi128_pd(gt));
    count += 2 - static_cast<std::size_t>(__builtin_popcount(mask));
  }
#endif
  // Scalar tail (or whole array without SIMD): the comparison result is
  // consumed as an integer, so there is no branch to mispredict.
  for (; i < n; ++i) count += static_cast<std::size_t>(first[i] <= key);
  return count;
}

/// Below this length a linear SIMD/branch-free count over contiguous
/// credits beats binary probing (sequential loads, no mispredictions).
/// Typical reserved-queue B snapshots hold well under this many runs.
inline constexpr std::size_t kLinearCutoff = 32;

/// Hybrid upper_bound over a sorted credit array — the entry point used
/// by the 𝒫²𝒮ℳ anchor search and the fallback merge walk.
[[nodiscard]] inline std::size_t credit_upper_bound(
    const std::int64_t* first, std::size_t n, std::int64_t key) noexcept {
  if (n <= kLinearCutoff) return simd_count_le(first, n, key);
  return branchless_upper_bound(first, n, key);
}

/// Software prefetch of the cache line holding `address` (read intent).
/// No-op where the builtin is unavailable.
inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace horse::sched::credit_scan
