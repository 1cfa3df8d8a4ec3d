// uLL workload: tiny ML inference (logistic scorer).
//
// §1 cites "machine learning (ML) inference tasks" running "every
// request, every microsecond" at CDN edges. The representative kernel is
// a dense dot product plus sigmoid over a small feature vector — a linear
// model of the size those systems actually deploy per-request. Execution
// sits at the Category-1/2 boundary depending on the feature width.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/function.hpp"

namespace horse::workloads {

class MlInferenceFunction final : public Function {
 public:
  /// A model with `features` weights (random, seeded, fixed thereafter).
  explicit MlInferenceFunction(std::size_t features = 256,
                               std::uint64_t seed = 29);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ml-inference";
  }
  [[nodiscard]] Category category() const noexcept override {
    return Category::kCategory2;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return 1'000;  // ~1 µs for a 256-feature linear scorer
  }

  /// request.payload carries the feature vector (int32, scaled by 1e3);
  /// missing features read as zero, extras are ignored.
  /// response.allowed = (score >= 0.5); checksum = score in ppm.
  Response invoke(const Request& request) override;

  [[nodiscard]] double score(const std::vector<std::int32_t>& features) const;

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace horse::workloads
