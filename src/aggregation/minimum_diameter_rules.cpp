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
  // Only the minimum-diameter subset is materialized for Weiszfeld, not the
  // whole inbox.
  return geometric_median_point(gather_rows(batch, md.indices), options_);
}

}  // namespace bcl
