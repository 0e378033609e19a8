#include "aggregation/minimum_diameter_rules.hpp"

#include <limits>
#include <stdexcept>

#include "geometry/min_diameter.hpp"

namespace bcl {

Vector MinimumDiameterMeanRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  return mean_of_rows(batch, md.indices);
}

Vector MinimumDiameterGeoMedianRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  // The workspace's matrix selects the subset; Weiszfeld reads its rows in
  // place and builds its own matrix over them, so the median depends only
  // on those rows.
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  std::vector<const double*> table;
  WeiszfeldResult median =
      geometric_median(rows_view(batch, md.indices, table), options_);
  WeiszfeldMetrics(ctx.metrics).record(median);
  return std::move(median.point);
}

Vector StickyMinDiameterGeoRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& workspace,
    const AggregationContext& ctx) const {
  if (ctx.current == nullptr) {
    throw std::invalid_argument(
        "MD-GEOM-STICKY: AggregationContext::current is null (the rule "
        "breaks ties toward the node's own vector)");
  }
  if (ctx.current->size() != batch.dim()) {
    throw std::invalid_argument(
        "MD-GEOM-STICKY: current vector has dimension " +
        std::to_string(ctx.current->size()) + ", the inbox " +
        std::to_string(batch.dim()));
  }
  const auto tied = min_diameter_subsets(workspace.distances(), ctx.keep());
  const WeiszfeldMetrics metrics(ctx.metrics);
  Vector best;
  double best_dist = std::numeric_limits<double>::infinity();
  std::vector<const double*> table;
  for (const auto& candidate : tied) {
    WeiszfeldResult median = geometric_median(
        rows_view(batch, candidate.indices, table), options_);
    metrics.record(median);
    const double d = distance(median.point, *ctx.current);
    if (d < best_dist) {
      best_dist = d;
      best = std::move(median.point);
    }
  }
  return best;
}

}  // namespace bcl
