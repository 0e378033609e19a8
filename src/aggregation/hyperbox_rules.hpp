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
//
// Both rules build their boxes in two passes over tiles of coordinates,
// never one pass over rows per subset:
//  1. The order-statistics pass (OrderStatistics, linalg/stats.hpp) keeps
//     the r = m - (n - t) + 1 lowest and highest values of every
//     coordinate.  TH is the r-th on each side, and every subset's
//     bounding-box spread, which Weiszfeld's stop test needs, comes from
//     the same table.
//  2. Each subset's aggregate is kept as a MedianForm
//     (geometry/weiszfeld.hpp): a row, a two-row midpoint, weights over the
//     subset's rows (the loop's final weights, or 1 / s for a mean), or a
//     hand-off point.  The majority closed form reads row classes computed
//     once per batch, and the distance matrix is built only if some subset
//     reaches the loop.  The fold pass then writes every form's slice of a
//     coordinate tile and takes its min / max into GH in subset order,
//     Hyperbox::bounding's order.
// Both passes hand their tiles to the rule's pool (the workspace's, else
// ctx.pool) when one is set; tiles are independent and each folds subsets
// in order, so pooled results are the serial ones bit for bit.  Memory is O(r * d) for the table, O(d) for the
// boxes and O(C * s) for the forms, with C = C(m, n - t) subsets of s =
// n - t rows, instead of the C x d aggregate batch enumerate-then-bound
// needs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"
#include "linalg/stats.hpp"

namespace bcl {

/// The most (n - t)-subsets a hyperbox rule, compute_sgeo or compute_smean
/// enumerates.  At the paper's d = 52 650 a subset whose median runs
/// Weiszfeld costs about 1.1 ms serially (BOX-GEOM at n = 10, t = 2: 45
/// such subsets, 50 ms on a 4-vCPU VM), so 10^5 subsets are about two
/// minutes per call, every round.  Far past it the subsets do not even
/// fit in memory: the C(31, 21) = 44 352 165 index sets of n = 31, t = 10
/// took a process past 8 GB.
inline constexpr std::uint64_t kMaxHyperboxSubsets = 100000;

/// Throws std::invalid_argument naming `who`, C(m, keep) and the budget
/// when C(m, keep) exceeds kMaxHyperboxSubsets (or 64 bits).  Allocates
/// nothing, so callers run it before any work.
void check_subset_budget(const std::string& who, std::size_t m,
                         std::size_t keep);

/// The geometric medians of every keep-subset of the batch rows, in
/// lexicographic subset order, as forms: the closed forms first (row
/// classes computed once), then spreads from `table` (built over `batch`
/// with depth m - keep + 1) for the rest, and the weight-space loop on one
/// Gram-trick DistanceMatrix for those with a positive spread, built only
/// then.  Spreads and loops run on `pool` when set.
std::vector<MedianForm> subset_geometric_medians(
    const GradientBatch& batch, std::size_t keep, const OrderStatistics& table,
    ThreadPool* pool, const WeiszfeldOptions& options);

/// The means of every keep-subset of the batch rows, in lexicographic
/// subset order, as weights forms.
std::vector<MedianForm> subset_means(const GradientBatch& batch,
                                     std::size_t keep);

/// mid(TH ∩ GH) for the trusted box TH and GH the bounding box of the
/// forms' points over `batch`, folded one coordinate tile at a time (on
/// `pool` when set).  Throws std::logic_error if the intersection is empty
/// beyond numerical tolerance (Theorem 4.4 guarantees non-emptiness; a tiny
/// per-coordinate tolerance absorbs Weiszfeld rounding).
Vector hyperbox_aggregate(const Hyperbox& trusted, const GradientBatch& batch,
                          const std::vector<MedianForm>& forms,
                          ThreadPool* pool);

/// BOX-MEAN: hyperbox rule with subset means.  Both passes run on the
/// workspace's pool when one is attached, else on ctx.pool.
class BoxMeanRule final : public AggregationRule {
 public:
  std::string name() const override { return "BOX-MEAN"; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& workspace,
                      const AggregationContext& ctx) const override;
};

/// BOX-GEOM: hyperbox rule with subset geometric medians (Algorithm 2).
/// When some subset reaches the Weiszfeld loop, the call builds one
/// Gram-trick DistanceMatrix over the inbox (on the pool when one is
/// attached; never the workspace's matrix) and every such subset iterates
/// on its index block of it.  With ctx.metrics attached it records each
/// subset median in the `weiszfeld.*` metrics.
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
