#include "aggregation/hyperbox_rules.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/subsets.hpp"
#include "linalg/stats.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

VectorList subset_aggregates(
    const GradientBatch& batch, std::size_t keep, ThreadPool* pool,
    const std::function<Vector(const VectorList&)>& subset_aggregate) {
  const std::size_t m = batch.rows();
  if (pool != nullptr && m > keep) {
    // Materialize the index sets so disjoint chunks can run on the pool.
    const auto combos = all_combinations(m, keep);
    VectorList points(combos.size());
    pool->parallel_for(0, combos.size(), [&](std::size_t c) {
      points[c] = subset_aggregate(gather_rows(batch, combos[c]));
    });
    return points;
  }
  // Serial path: stream the combinations without materializing them.
  VectorList points;
  points.reserve(static_cast<std::size_t>(binomial(m, keep)));
  for_each_combination(m, keep, [&](const std::vector<std::size_t>& idx) {
    points.push_back(subset_aggregate(gather_rows(batch, idx)));
  });
  return points;
}

Vector hyperbox_aggregate(
    const GradientBatch& batch, const AggregationContext& ctx,
    const std::function<Vector(const VectorList&)>& subset_aggregate) {
  const std::size_t keep = ctx.keep();
  // TH_i: coordinate-wise trim of |M_i| - (n - t) values per side
  // (Definition 2.5).
  const Hyperbox trusted = trimmed_hyperbox(batch, keep);
  // GH_i (or its mean analogue): bounding box of subset aggregates
  // (Definition 3.5).
  const VectorList points =
      subset_aggregates(batch, keep, ctx.pool, subset_aggregate);
  const Hyperbox aggregate_box = Hyperbox::bounding(points);

  auto intersection = Hyperbox::intersect(trusted, aggregate_box);
  if (!intersection) {
    // Theorem 4.4 proves TH_i ∩ GH_i is non-empty; an empty result can only
    // come from Weiszfeld's finite tolerance placing a subset median
    // epsilon-outside the trusted interval.  Retry with a tolerance
    // proportional to the data scale before declaring a logic error.
    const double tol =
        1e-9 * (1.0 + std::max(trusted.max_edge(), aggregate_box.max_edge()));
    intersection =
        Hyperbox::intersect(trusted.inflated(tol), aggregate_box.inflated(tol));
    if (!intersection) {
      throw std::logic_error(
          "hyperbox_aggregate: TH ∩ GH empty — violates Theorem 4.4");
    }
  }
  return intersection->midpoint();
}

namespace {

// The workspace's pool (when attached) takes precedence for the subset
// fan-out.
AggregationContext with_workspace_pool(const AggregationContext& ctx,
                                       AggregationWorkspace& workspace) {
  AggregationContext out = ctx;
  if (workspace.pool() != nullptr) out.pool = workspace.pool();
  return out;
}

}  // namespace

Vector BoxMeanRule::do_aggregate(const GradientBatch& batch,
                                 AggregationWorkspace& workspace,
                                 const AggregationContext& ctx) const {
  return hyperbox_aggregate(batch, with_workspace_pool(ctx, workspace),
                            [](const VectorList& subset) { return mean(subset); });
}

Vector BoxGeoMedianRule::do_aggregate(const GradientBatch& batch,
                                      AggregationWorkspace& workspace,
                                      const AggregationContext& ctx) const {
  const WeiszfeldOptions options = options_;
  return hyperbox_aggregate(
      batch, with_workspace_pool(ctx, workspace),
      [options](const VectorList& subset) {
        return geometric_median_point(subset, options);
      });
}

}  // namespace bcl
