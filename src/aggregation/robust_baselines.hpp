#pragma once
// Additional robust-aggregation baselines from the Byzantine-ML literature
// surveyed by the paper (Guerraoui et al. 2024), used by the ablation
// benches to place the hyperbox rules in a wider landscape:
//
//  - RFA (Pillutla et al. 2022): smoothed-Weiszfeld geometric median, the
//    aggregator the paper cites for geometric-median aggregation.
//  - Centered clipping (Karimireddy et al. 2021): iteratively re-center on
//    the clipped average of residuals around the current estimate.
//  - Norm clipping: rescale every received vector to at most the median
//    norm, then average (a common magnitude-attack defence).

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"

namespace bcl {

/// RFA: smoothed Weiszfeld with smoothing radius nu.
class RfaRule final : public AggregationRule {
 public:
  explicit RfaRule(double nu = 1e-6, WeiszfeldOptions options = {})
      : nu_(nu), options_(options) {}
  std::string name() const override { return "RFA"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  double nu_;
  WeiszfeldOptions options_;
};

/// Centered clipping around an initial robust center (coordinate-wise
/// median), with `iterations` re-centering steps and clip radius
/// `tau_scale` times the median distance to the center.
class CenteredClippingRule final : public AggregationRule {
 public:
  explicit CenteredClippingRule(std::size_t iterations = 3,
                                double tau_scale = 1.0)
      : iterations_(iterations), tau_scale_(tau_scale) {}
  std::string name() const override { return "CCLIP"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  std::size_t iterations_;
  double tau_scale_;
};

/// Norm clipping: every vector is scaled down to at most the median norm of
/// the received vectors, then the mean is taken.
class NormClippingRule final : public AggregationRule {
 public:
  std::string name() const override { return "NORM-CLIP"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

}  // namespace bcl
