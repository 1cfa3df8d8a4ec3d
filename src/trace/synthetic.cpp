#include "trace/synthetic.hpp"

#include <cmath>
#include <string>

namespace horse::trace {

namespace {

/// Largest rate drawn by one inversion: exp(-rate) stays a normal double
/// well past it (it underflows to 0 near 745, and the search then runs to
/// its cap).
constexpr double kMaxInversionRate = 700.0;

/// One Poisson draw by inversion (sequential search from exp(-rate)).
std::uint32_t poisson_inversion(double rate, util::Xoshiro256& rng) {
  std::uint32_t count = 0;
  double p = std::exp(-rate);
  double cumulative = p;
  const double u = rng.uniform01();
  while (u > cumulative && count < 100000) {
    ++count;
    p *= rate / static_cast<double>(count);
    cumulative += p;
  }
  return count;
}

/// Poisson draw at any rate. Rates up to kMaxInversionRate take exactly
/// one inversion (so their RNG stream is unchanged); higher rates sum
/// independent draws over equal chunks of at most kMaxInversionRate,
/// which is again Poisson at the full rate.
std::uint32_t poisson(double rate, util::Xoshiro256& rng) {
  if (rate <= kMaxInversionRate) {
    return poisson_inversion(rate, rng);
  }
  const auto chunks =
      static_cast<std::uint32_t>(std::ceil(rate / kMaxInversionRate));
  std::uint32_t count = 0;
  for (std::uint32_t c = 0; c < chunks; ++c) {
    count += poisson_inversion(rate / chunks, rng);
  }
  return count;
}

}  // namespace

util::Nanos DurationSampler::sample() {
  if (rng_.uniform01() < params_.tail_fraction) {
    return static_cast<util::Nanos>(rng_.bounded_pareto(
        params_.tail_alpha, static_cast<double>(params_.tail_min),
        static_cast<double>(params_.tail_max)));
  }
  const double log_median = std::log(static_cast<double>(params_.median));
  const double sample = rng_.normal(log_median, params_.sigma);
  return static_cast<util::Nanos>(std::exp(sample));
}

std::vector<FunctionRow> SyntheticAzureTrace::generate_rows() const {
  util::Xoshiro256 rng(params_.seed);
  std::vector<FunctionRow> rows;
  rows.reserve(params_.num_functions);
  for (std::uint32_t f = 0; f < params_.num_functions; ++f) {
    FunctionRow row;
    row.owner = "owner-" + std::to_string(f % 7);
    row.app = "app-" + std::to_string(f % 13);
    row.function = "fn-" + std::to_string(f);
    row.trigger = f % 3 == 0 ? "http" : (f % 3 == 1 ? "queue" : "timer");

    // Zipf popularity: rank f+1 gets rate ~ top / (rank^s).
    const double base_rate =
        params_.top_rate_per_minute /
        std::pow(static_cast<double>(f + 1), params_.zipf_s);

    row.per_minute.reserve(params_.num_minutes);
    for (std::uint32_t m = 0; m < params_.num_minutes; ++m) {
      // Bursty per-minute rate, then a Poisson draw at that rate.
      const double jitter =
          1.0 + params_.rate_jitter * (2.0 * rng.uniform01() - 1.0);
      const double rate = base_rate * (jitter < 0.05 ? 0.05 : jitter);
      row.per_minute.push_back(poisson(rate, rng));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace horse::trace
