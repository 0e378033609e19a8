#include "aggregation/simple_rules.hpp"

#include <algorithm>
#include <utility>

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
    const AggregationContext& ctx) const {
  WeiszfeldResult median = geometric_median(batch, options_);
  WeiszfeldMetrics(ctx.metrics).record(median);
  return std::move(median.point);
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
