#pragma once
// Minimum-diameter aggregation rules.
//
// MD-MEAN is the Minimum Diameter Averaging rule of El-Mhamdi et al.: pick
// an (n - t)-subset MD of the received vectors with minimum diameter and
// output its mean.  MD-GEOM is the paper's Algorithm 1 round step: output
// the geometric median of the MD set instead.  Lemma 4.2 shows the MD-GEOM
// agreement iteration need not converge, but a single application is a
// 2-approximation of the true geometric median (Section 4.1), which is why
// it is the strongest rule in the *centralized* evaluation.
//
// The minimum-diameter set need not be unique (Definition 3.4).
// MD-GEOM-STICKY breaks ties toward the calling node's own vector, the
// natural choice that gives Lemma 4.2's adversary the freedom to stall
// convergence.  It reads that vector from AggregationContext::current, so
// only the agreement protocol, which sets it, can run it; make_rule does
// not list it.

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"

namespace bcl {

/// MD-MEAN (MDA): mean of a minimum-diameter (n - t)-subset.
class MinimumDiameterMeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "MD-MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// MD-GEOM (Algorithm 1 step): geometric median of a minimum-diameter
/// (n - t)-subset.
class MinimumDiameterGeoMedianRule final : public AggregationRule {
 public:
  explicit MinimumDiameterGeoMedianRule(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "MD-GEOM"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

/// MD-GEOM with sticky tie-breaking: among all minimum-diameter
/// (n - t)-subsets, the one whose geometric median is closest to
/// *ctx.current.  Throws std::invalid_argument naming the rule when
/// ctx.current is null or its dimension differs from the inbox's.
class StickyMinDiameterGeoRule final : public AggregationRule {
 public:
  explicit StickyMinDiameterGeoRule(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "MD-GEOM-STICKY"; }
  bool reads_current() const override { return true; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

}  // namespace bcl
