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
  Vector best;
  double best_dist = std::numeric_limits<double>::infinity();
  std::vector<const double*> table;
  for (const auto& candidate : tied) {
    const Vector median = geometric_median_point(
        rows_view(batch, candidate.indices, table), options_);
    const double d = distance(median, current);
    if (d < best_dist) {
      best_dist = d;
      best = median;
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
