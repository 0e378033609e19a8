#pragma once
// Baseline aggregation rules: mean, geometric median, medoid,
// coordinate-wise median, coordinate-wise trimmed mean.
//
// Mean and geometric median are the two aggregation vectors the paper
// studies (Definitions 2.1 and 2.2); the others are common robust baselines
// from the Byzantine-ML literature that the test suite and ablation benches
// compare against.

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"

namespace bcl {

/// Plain arithmetic mean of everything received (no Byzantine filtering).
class MeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// Weiszfeld geometric median of everything received.
class GeometricMedianRule final : public AggregationRule {
 public:
  explicit GeometricMedianRule(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "GEOMED"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

/// Medoid of everything received (geometric medoid rule of El-Mhamdi et
/// al.).  Distance-based, so it participates in the shared workspace.
class MedoidRule final : public AggregationRule {
 public:
  std::string name() const override { return "MEDOID"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// Coordinate-wise median.
class CoordinatewiseMedianRule final : public AggregationRule {
 public:
  std::string name() const override { return "CW-MEDIAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// Coordinate-wise trimmed mean, trimming min(t, (m-1)/2) values per side
/// (the El-Mhamdi et al. trimmed-mean agreement primitive).
class TrimmedMeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "TRIM-MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

}  // namespace bcl
