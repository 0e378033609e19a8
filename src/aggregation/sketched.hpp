#pragma once
// Sketched distance-based rules with an exactness fallback.
//
// SKETCH-KRUM / SKETCH-MULTIKRUM-<q> / SKETCH-MD-MEAN run their base
// rule's selection over JL-sketched pairwise distances (linalg/sketch.hpp)
// instead of the exact O(m^2 * d) matrix.  Selection consumes distances
// only, so the aggregated *values* are always exact rows of the inbox —
// approximation can only ever pick a different row set, never perturb the
// output values.
//
// That is exactly where silent wrongness would hide, so every rule guards
// its decision with the sketch's error bound: if the decision margin (the
// score gap around the selection cut for Krum flavours, the diameter gap
// between candidate subsets for MD) is within the bound, the sketch
// cannot certify the winner and the rule recomputes over the exact
// distance matrix from the caller's workspace.  On separable inputs the
// sketched and exact selections therefore agree (property-tested); on
// adversarial near-ties the fallback triggers and they agree by
// construction.  `SketchOptions::force_fallback` pins the exact path for
// tests.

#include <cstdint>

#include "aggregation/rule.hpp"

namespace bcl {

struct SketchOptions {
  /// Sketch dimension k.  Inputs with dim() <= k take the exact path
  /// outright (a projection cannot be cheaper than the data).
  std::size_t k = 64;
  /// Scales relative_error(m) in the certification test (sketched.cpp's
  /// margin_resolved).  The test already encodes the worst case the JL
  /// bound permits, so 1.0 is sound; values > 1 add conservatism but an
  /// effective error >= 1 (factor * relative_error(m) >= 1) can never
  /// certify any cut and pins the exact fallback.
  double margin_factor = 1.0;
  /// Seed of the deterministic sign matrix; fixed per rule instance so
  /// replays are bitwise stable.
  std::uint64_t seed = 0x6B1A52C87D94E03Full;
  /// Test hook: always take the exact path (the output must then be
  /// bitwise identical to the unsketched base rule).
  bool force_fallback = false;
};

class SketchedKrumRule final : public AggregationRule {
 public:
  explicit SketchedKrumRule(SketchOptions options = {}) : options_(options) {}
  std::string name() const override { return "SKETCH-KRUM"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  SketchOptions options_;
};

class SketchedMultiKrumRule final : public AggregationRule {
 public:
  explicit SketchedMultiKrumRule(std::size_t q, SketchOptions options = {})
      : q_(q), options_(options) {}
  std::string name() const override {
    return "SKETCH-MULTIKRUM-" + std::to_string(q_);
  }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  std::size_t q_;
  SketchOptions options_;
};

class SketchedMdMeanRule final : public AggregationRule {
 public:
  explicit SketchedMdMeanRule(SketchOptions options = {})
      : options_(options) {}
  std::string name() const override { return "SKETCH-MD-MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  SketchOptions options_;
};

}  // namespace bcl
