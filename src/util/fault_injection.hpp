// Seeded, deterministic fault injection — compiled out in release builds.
//
// The degradation ladder (poisoned-index fallback, platform retry rungs)
// only earns its keep if the failures it guards against can be produced
// on demand, deterministically, in tests. This header is the mechanism:
// failure-prone code carries named HORSE_FAULT_POINT("site") markers at
// the exact decision points that can go wrong — 𝒫²𝒮ℳ index build/splice,
// the resume prologue, snapshot restore, warm-pool park/take. In a normal (fault-armed) build the macro
// is one relaxed atomic load when nothing is armed; in the `release`
// preset (-DHORSE_FAULT_INJECTION=OFF) it is the constant `false` and the
// fault plumbing does not exist, exactly like HORSE_DCHECK.
//
// Arming modes:
//   * arm_always(site[, max_fires])      — fire on every hit (bounded);
//   * arm_nth(site, nth[, max_fires])    — fire on the nth hit (1-based),
//                                          the workhorse for replayable
//                                          "fail exactly here" tests;
//   * arm_probability(site, p[, max])    — fire with probability p drawn
//                                          from the injector's seeded
//                                          xoshiro stream.
//
// Determinism: counting modes are exact; the probability stream is seeded
// from HORSE_FAULT_SEED (environment, decimal) or reseed(), so a stochastic
// fault campaign replays bit-identically from its seed as long as the
// thread interleaving of hits is fixed (single-threaded drivers, or the
// tests/harness/ explorer). Per-site hit/fire counters are kept so
// experiments can assert both that faults fired and how often the
// fallbacks engaged.
//
// Thread-safety: should_fire() may be called concurrently from resume
// threads; arming/disarming is mutex-protected and
// meant for test setup/teardown, not hot paths.
#pragma once

#if defined(HORSE_FAULT_INJECTION)

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace horse::util {

struct FaultSiteStats {
  std::uint64_t hits = 0;   // times an armed site was reached
  std::uint64_t fires = 0;  // times it actually injected the fault
};

class FaultInjector {
 public:
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  /// Process-wide injector. Seeded from the HORSE_FAULT_SEED environment
  /// variable when present (decimal), else a fixed default, so a failing
  /// fault campaign can be replayed with `HORSE_FAULT_SEED=<n> ctest ...`.
  static FaultInjector& global() noexcept;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- arming (test setup; mutex-protected) -------------------------------

  void arm_always(std::string site, std::uint64_t max_fires = kUnlimited);
  /// Fire exactly when the site's hit counter reaches `nth` (1-based).
  void arm_nth(std::string site, std::uint64_t nth,
               std::uint64_t max_fires = 1);
  void arm_probability(std::string site, double probability,
                       std::uint64_t max_fires = kUnlimited);
  void disarm(std::string_view site);
  /// Disarm every site and clear all statistics.
  void reset();

  void reseed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t seed() const;

  // --- hot-path query ------------------------------------------------------

  /// True when the named fault should be injected now. One relaxed atomic
  /// load when nothing is armed anywhere.
  [[nodiscard]] bool should_fire(const char* site) noexcept;

  // --- introspection -------------------------------------------------------

  [[nodiscard]] FaultSiteStats site_stats(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_fires() const;
  [[nodiscard]] std::uint64_t total_hits() const;
  /// Snapshot of every armed site's counters, for surfacing through
  /// metrics::counters_table alongside the fallback counters.
  [[nodiscard]] std::vector<std::pair<std::string, FaultSiteStats>>
  armed_sites() const;

 private:
  enum class Mode : std::uint8_t { kAlways, kNth, kProbability };

  struct Site {
    Mode mode = Mode::kAlways;
    double probability = 0.0;
    std::uint64_t nth = 0;
    std::uint64_t max_fires = kUnlimited;
    FaultSiteStats stats;
  };

  FaultInjector();

  void arm(std::string site, Site armed);

  mutable std::mutex mutex_;
  // std::map with transparent comparison: should_fire() looks up by
  // const char* without constructing a std::string (no allocation, so the
  // noexcept contract holds).
  std::map<std::string, Site, std::less<>> sites_;
  std::atomic<std::size_t> armed_count_{0};
  Xoshiro256 rng_;
  std::uint64_t seed_ = 0;
  std::uint64_t total_fires_ = 0;
  std::uint64_t total_hits_ = 0;
};

/// RAII arming for tests: disarms its site (on the global injector) when
/// leaving scope, so one test's faults cannot leak into the next.
class ScopedFault {
 public:
  [[nodiscard]] static ScopedFault always(
      std::string site, std::uint64_t max_fires = FaultInjector::kUnlimited) {
    FaultInjector::global().arm_always(site, max_fires);
    return ScopedFault(std::move(site));
  }
  [[nodiscard]] static ScopedFault nth(std::string site, std::uint64_t nth,
                                       std::uint64_t max_fires = 1) {
    FaultInjector::global().arm_nth(site, nth, max_fires);
    return ScopedFault(std::move(site));
  }
  [[nodiscard]] static ScopedFault probability(
      std::string site, double p,
      std::uint64_t max_fires = FaultInjector::kUnlimited) {
    FaultInjector::global().arm_probability(site, p, max_fires);
    return ScopedFault(std::move(site));
  }

  ScopedFault(ScopedFault&& other) noexcept : site_(std::move(other.site_)) {
    other.site_.clear();
  }
  ScopedFault& operator=(ScopedFault&&) = delete;
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  ~ScopedFault() {
    if (!site_.empty()) {
      FaultInjector::global().disarm(site_);
    }
  }

 private:
  explicit ScopedFault(std::string site) : site_(std::move(site)) {}
  std::string site_;
};

}  // namespace horse::util

#define HORSE_FAULT_POINT(site) \
  (::horse::util::FaultInjector::global().should_fire(site))

#else  // !HORSE_FAULT_INJECTION

#define HORSE_FAULT_POINT(site) (false)

#endif  // HORSE_FAULT_INJECTION
