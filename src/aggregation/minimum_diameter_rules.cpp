#include "aggregation/minimum_diameter_rules.hpp"

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

}  // namespace bcl
