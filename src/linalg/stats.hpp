#pragma once
// Order statistics and coordinate-wise trimming.
//
// The locally trusted hyperbox (Definition 2.5) keeps, in every coordinate,
// the received values left after discarding m-(n-t) of them on each side.
// OrderStatistics computes it without sorting: one pass over the rows keeps
// the r = m-(n-t)+1 lowest and r highest values of every coordinate, and
// TH is the r-th on each side.  The same table gives the bounding-box
// spread of any subset that leaves out fewer than r rows, which is what the
// hyperbox rules need per (n-t)-subset.  The coordinate-wise median /
// trimmed-mean primitives sort columns instead.

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/gradient_batch.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/vector_ops.hpp"

namespace bcl {

class ThreadPool;

/// k-th smallest of a copy of `values` (0-indexed).  Throws if out of range.
double kth_smallest(std::vector<double> values, std::size_t k);

/// Median of a copy of `values` (average of the two middle elements for
/// even sizes).
double median(std::vector<double> values);

/// Mean after removing the `trim` smallest and `trim` largest values.
/// Throws if 2*trim >= size.
double trimmed_mean(std::vector<double> values, std::size_t trim);

/// Coordinate-wise median vector of a non-empty list.
Vector coordinatewise_median(const VectorList& vs);

/// Coordinate-wise trimmed mean with `trim` values removed per side in each
/// coordinate independently.
Vector coordinatewise_trimmed_mean(const VectorList& vs, std::size_t trim);

/// Batch forms of the coordinate-wise reductions: a blocked column pass
/// transposes tiles of columns into a small scratch buffer (one strided
/// sweep per tile instead of one per coordinate), then applies the same
/// order statistics per column.  Outputs are bitwise identical to the
/// VectorList forms on the same values.
Vector coordinatewise_median(const GradientBatch& batch);
Vector coordinatewise_trimmed_mean(const GradientBatch& batch,
                                   std::size_t trim);

/// The `depth` lowest and `depth` highest values of every coordinate of a
/// batch's rows, from one pass that streams the rows in increasing index
/// over tiles of coordinates.
///
/// Each side keeps its values in the order a stable sort would: the low
/// side ascending, a new row inserted on a strict `<` (after the equal
/// values already kept), the high side descending, inserted on `>=`.  Every
/// kept value is a copy of an input value, so the depth-th lowest value of
/// column k equals the stably sorted column's value at index depth-1 bit
/// for bit, -0.0 and 0.0 included.  std::sort on at most 16 values is
/// libstdc++'s insertion sort, which is stable, so for m <= 16 rows box()
/// is bitwise the sort-based TH; above 16 rows a tie between -0.0 and 0.0
/// may resolve to the other zero.  An update is a compare, a min/max and a
/// select per kept value, with no branch, and it reads only the previous
/// values, so the coordinate loop vectorizes.
///
/// Values are assumed finite (validate_inbox rejects the rest).  With a
/// `pool` the coordinate tiles are handed out with parallel_for_dynamic;
/// tiles are independent, so the table is the serial one bit for bit.
/// Memory: 2 * depth * d doubles.  The batch must outlive the table.
class OrderStatistics {
 public:
  /// Throws std::invalid_argument unless 1 <= depth <= batch.rows().
  OrderStatistics(const GradientBatch& batch, std::size_t depth,
                  ThreadPool* pool = nullptr);

  /// [depth-th lowest, depth-th highest value] in every coordinate: TH
  /// when depth = m - keep + 1.  Throws std::invalid_argument when
  /// 2 * depth > m + 1, where the lower index would pass the upper one.
  Hyperbox box() const;

  /// The bounding-box diagonals of several subsets of the batch rows, each
  /// given by the rows it leaves out (distinct indices, fewer than depth
  /// of them): entry i is Hyperbox::bounding of the rows other than
  /// excluded[i], then diagonal(), bit for bit.  With low(c, k) the
  /// (c+1)-th lowest value of coordinate k, a subset's lowest value there
  /// is low(c, k) for the first c that its excluded rows' own values do
  /// not account for, i.e. the least c with
  /// #{excluded x : x <= low(c, k)} <= c (the high side mirrors it).  That
  /// equals the subset's minimum up to the sign of a zero, which squaring
  /// removes, and each subset's squared edges are summed in coordinate
  /// order as diagonal() sums them.  O(d * q^2) per subset of q excluded
  /// rows, reading only those rows and the table.  With a `pool` groups of
  /// subsets run in parallel, each sum still in coordinate order.
  std::vector<double> spreads_without(
      const std::vector<std::vector<std::size_t>>& excluded,
      ThreadPool* pool = nullptr) const;

 private:
  // Squared edges of coordinates [k0, k0 + width) of the bounding box of
  // the rows other than `excluded`, into out[0, width).
  void squared_edges(const std::vector<std::size_t>& excluded, std::size_t k0,
                     std::size_t width, double* out) const;

  const GradientBatch* batch_;
  std::size_t d_;
  std::size_t depth_;
  std::unique_ptr<double[]> low_;   // depth x d: low_[j * d + k]
  std::unique_ptr<double[]> high_;  // depth x d
};

/// The locally trusted hyperbox of Definition 2.5: in each coordinate,
/// interval from the (drop+1)-th smallest to the (m-drop)-th smallest value
/// (1-indexed), where drop = m - keep and m = batch.rows().
///
/// `keep` is the paper's n - t.  Requires n - t <= m and drop*2 may exceed
/// the interval only when keep <= drop, which is rejected.  This is
/// OrderStatistics(batch, drop + 1, pool).box(), with its m <= 16
/// stability note; the pooled result is the serial one bit for bit.
Hyperbox trimmed_hyperbox(const GradientBatch& batch, std::size_t keep,
                          ThreadPool* pool = nullptr);

/// Sample mean and (population) standard deviation of values.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd mean_std(const std::vector<double>& values);

}  // namespace bcl
