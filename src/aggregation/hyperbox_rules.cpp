#include "aggregation/hyperbox_rules.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/subsets.hpp"
#include "linalg/stats.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

GradientBatch subset_aggregates(const GradientBatch& batch, std::size_t keep,
                                ThreadPool* pool,
                                const SubsetAggregate& subset_aggregate) {
  const auto combos = all_combinations(batch.rows(), keep);
  GradientBatch points(combos.size(), batch.dim());
  // Each task writes only its own row.
  const auto run = [&](std::size_t c) {
    points.set_row(c, subset_aggregate(combos[c]));
  };
  if (pool != nullptr) {
    pool->parallel_for_dynamic(0, combos.size(), run);
  } else {
    for (std::size_t c = 0; c < combos.size(); ++c) run(c);
  }
  return points;
}

Vector hyperbox_aggregate(const GradientBatch& batch,
                          const AggregationContext& ctx,
                          const SubsetAggregate& subset_aggregate) {
  const std::size_t keep = ctx.keep();
  // TH_i: coordinate-wise trim of |M_i| - (n - t) values per side
  // (Definition 2.5).
  const Hyperbox trusted = trimmed_hyperbox(batch, keep, ctx.pool);
  // GH_i (or its mean analogue): bounding box of subset aggregates
  // (Definition 3.5).
  const Hyperbox aggregate_box = Hyperbox::bounding(
      subset_aggregates(batch, keep, ctx.pool, subset_aggregate));

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
  return hyperbox_aggregate(
      batch, with_workspace_pool(ctx, workspace),
      [&batch](const std::vector<std::size_t>& subset) {
        return mean_of_rows(batch, subset);
      });
}

Vector BoxGeoMedianRule::do_aggregate(const GradientBatch& batch,
                                      AggregationWorkspace& workspace,
                                      const AggregationContext& ctx) const {
  const AggregationContext pooled = with_workspace_pool(ctx, workspace);
  // One matrix per call, the kernel's own: every subset median iterates on
  // its index block.
  const DistanceMatrix distances(batch, pooled.pool);
  const WeiszfeldMetrics metrics(ctx.metrics);
  return hyperbox_aggregate(
      batch, pooled, [&](const std::vector<std::size_t>& subset) {
        WeiszfeldResult median =
            geometric_median(batch, distances, subset, options_);
        metrics.record(median);
        return std::move(median.point);
      });
}

}  // namespace bcl
