#pragma once
// Order statistics and coordinate-wise trimming.
//
// The locally trusted hyperbox (Definition 2.5) is built by sorting the
// received values in every coordinate and discarding m-(n-t) of them on each
// side; these helpers implement that trimming plus the coordinate-wise
// median / trimmed-mean aggregation primitives.

#include <cstddef>

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

/// The locally trusted hyperbox of Definition 2.5: in each coordinate,
/// interval from the (drop+1)-th smallest to the (m-drop)-th smallest value
/// (1-indexed), where drop = m - keep and m = batch.rows().
///
/// `keep` is the paper's n - t.  Requires n - t <= m and drop*2 may exceed
/// the interval only when keep <= drop, which is rejected.  Runs the same
/// blocked column pass as the coordinate-wise reductions; with a `pool` its
/// column tiles are handed out with parallel_for_dynamic, and since every
/// column is sorted on its own the result is the serial one bit for bit.
Hyperbox trimmed_hyperbox(const GradientBatch& batch, std::size_t keep,
                          ThreadPool* pool = nullptr);

/// Sample mean and (population) standard deviation of values.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd mean_std(const std::vector<double>& values);

}  // namespace bcl
