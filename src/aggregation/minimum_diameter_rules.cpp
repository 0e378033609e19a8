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
  const auto md = min_diameter_subset(workspace.distances(), ctx.keep());
  // Weiszfeld reads the minimum-diameter subset's rows in place.
  std::vector<const double*> table;
  return geometric_median_point(rows_view(batch, md.indices, table), options_);
}

}  // namespace bcl
