#include "agreement/round_function.hpp"

#include <limits>
#include <stdexcept>

#include "aggregation/registry.hpp"
#include "geometry/min_diameter.hpp"

namespace bcl {

RuleRound::RuleRound(AggregationRulePtr rule) : rule_(std::move(rule)) {
  if (!rule_) throw std::invalid_argument("RuleRound: null rule");
}

std::string RuleRound::name() const { return rule_->name(); }

Vector RuleRound::step(const GradientBatch& batch,
                       AggregationWorkspace& workspace,
                       const Vector& /*current*/,
                       const AggregationContext& ctx) const {
  return rule_->aggregate(batch, workspace, ctx);
}

Vector StickyMinDiameterGeoRound::step(const GradientBatch& batch,
                                       AggregationWorkspace& workspace,
                                       const Vector& current,
                                       const AggregationContext& ctx) const {
  validate_inbox(batch, workspace, ctx);
  const auto tied = min_diameter_subsets(workspace.distances(), ctx.keep());
  const WeiszfeldMetrics metrics(ctx.metrics);
  Vector best;
  double best_dist = std::numeric_limits<double>::infinity();
  std::vector<const double*> table;
  for (const auto& candidate : tied) {
    WeiszfeldResult median = geometric_median(
        rows_view(batch, candidate.indices, table), options_);
    metrics.record(median);
    const double d = distance(median.point, current);
    if (d < best_dist) {
      best_dist = d;
      best = std::move(median.point);
    }
  }
  return best;
}

RoundFunctionPtr make_round_function(const std::string& rule_name) {
  if (rule_name == "MD-GEOM-STICKY") {
    return std::make_shared<StickyMinDiameterGeoRound>();
  }
  return std::make_shared<RuleRound>(make_rule(rule_name));
}

}  // namespace bcl
