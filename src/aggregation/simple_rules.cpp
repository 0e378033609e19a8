#include "aggregation/simple_rules.hpp"

#include <algorithm>

#include "geometry/medoid.hpp"
#include "linalg/stats.hpp"

namespace bcl {

Vector MeanRule::do_aggregate(const GradientBatch& batch,
                              AggregationWorkspace& /*workspace*/,
                              const AggregationContext& /*ctx*/) const {
  return mean(batch);
}

Vector GeometricMedianRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& /*workspace*/,
    const AggregationContext& /*ctx*/) const {
  return geometric_median_point(batch, options_);
}

Vector MedoidRule::do_aggregate(const GradientBatch& batch,
                                AggregationWorkspace& workspace,
                                const AggregationContext& /*ctx*/) const {
  return batch.row_copy(medoid_index(workspace.distances()));
}

Vector CoordinatewiseMedianRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& /*workspace*/,
    const AggregationContext& /*ctx*/) const {
  return coordinatewise_median(batch);
}

Vector TrimmedMeanRule::do_aggregate(const GradientBatch& batch,
                                     AggregationWorkspace& /*workspace*/,
                                     const AggregationContext& ctx) const {
  const std::size_t trim = std::min(ctx.t, (batch.rows() - 1) / 2);
  return coordinatewise_trimmed_mean(batch, trim);
}

}  // namespace bcl
