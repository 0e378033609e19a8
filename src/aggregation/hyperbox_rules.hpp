#pragma once
// Hyperbox aggregation rules — the paper's core contribution.
//
// BOX-GEOM is one round step of Algorithm 2 (Section 4.2): compute the
// locally trusted hyperbox TH_i (Definition 2.5) by coordinate-wise
// trimming, compute the local geometric-median hyperbox GH_i (Definition
// 3.5) as the bounding box of the geometric medians of all (n - t)-subsets
// of the received vectors, and output mid(TH_i ∩ GH_i).  Theorem 4.4 proves
// the intersection is never empty, the iteration halves E_max every round,
// and a single step is a 2*sqrt(d)-approximation of the true geometric
// median.
//
// BOX-MEAN is the centroid variant of Cambus-Melnyk: GH_i is replaced by the
// bounding box of subset *means*.

#include <cstddef>
#include <functional>
#include <vector>

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/hyperbox.hpp"

namespace bcl {

/// Maps one (n-t)-subset, given as its ascending batch row indices, to
/// its aggregate point.
using SubsetAggregate =
    std::function<Vector(const std::vector<std::size_t>&)>;

/// Computes the per-subset aggregate points used by the hyperbox rules:
/// row c of the result is the aggregate (mean or geometric median) that
/// `subset_aggregate` maps the c-th (n-t)-subset of the batch rows to, in
/// lexicographic subset order.  Each subset reaches it as its index set,
/// so the callback reads the batch rows (mean_of_rows) or the index block
/// of one DistanceMatrix built over the batch (BOX-GEOM's Weiszfeld) in
/// place.  Subsets are handed out with parallel_for_dynamic when `pool` is
/// set, else run in a plain loop; the callback must be safe to run
/// concurrently and keep its scratch per call (no thread_local: a pooled
/// wait help-drains the queue and may run another task on this thread).
GradientBatch subset_aggregates(const GradientBatch& batch, std::size_t keep,
                                ThreadPool* pool,
                                const SubsetAggregate& subset_aggregate);

/// Shared implementation of the two hyperbox rules: output
/// mid(trimmed_hyperbox(batch) ∩ bounding_box(subset aggregates)).  TH's
/// column sorts and the subset fan-out both run on ctx.pool when set.
/// Throws std::logic_error if the intersection is empty beyond numerical
/// tolerance (Theorem 4.4 guarantees non-emptiness; a tiny per-coordinate
/// tolerance absorbs Weiszfeld rounding).
Vector hyperbox_aggregate(const GradientBatch& batch,
                          const AggregationContext& ctx,
                          const SubsetAggregate& subset_aggregate);

/// BOX-MEAN: hyperbox rule with subset means.  The subset fan-out runs on
/// the workspace's pool when one is attached, else on ctx.pool.
class BoxMeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "BOX-MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// BOX-GEOM: hyperbox rule with subset geometric medians (Algorithm 2).
/// Each call builds one Gram-trick DistanceMatrix over the inbox (on the
/// pool when one is attached; never the workspace's matrix) and every
/// subset's Weiszfeld iterates on its index block of it.  With ctx.metrics
/// attached it records each subset median in the `weiszfeld.*` metrics.
class BoxGeoMedianRule final : public AggregationRule {
 public:
  explicit BoxGeoMedianRule(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "BOX-GEOM"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

}  // namespace bcl
