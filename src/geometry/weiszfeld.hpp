#pragma once
// Geometric median via the Weiszfeld algorithm (Weiszfeld 1937; Kuhn 1973),
// the same iterative scheme the paper uses for all GEOM-suffixed rules.
//
// The geometric median of v_1..v_n minimizes sum_i ||v_i - mu||_2
// (Definition 2.2).  Weiszfeld iterates
//     y <- ( sum_i v_i / ||v_i - y|| ) / ( sum_i 1 / ||v_i - y|| )
// with Kuhn's modification when the iterate lands on an input point: the
// point is optimal iff the norm of the summed unit directions to the other
// points is at most its multiplicity; otherwise the iterate is pushed along
// that direction.
//
// Every iterate is a convex combination y = sum_j lambda_j v_j of the s
// inputs, so the loop runs in weight space.  With D the squared pairwise
// distances of the s rows,
//     ||y - v_k||^2 = (D lambda)_k - lambda^T D lambda / 2,
//     ||y' - y||^2  = -(lambda' - lambda)^T D (lambda' - lambda) / 2,
// an iteration costs O(s^2) instead of O(s * d), and y is materialized
// once, at the end, as the iteration's own quotient
// sum_j w_j v_j / sum_j w_j.
// The loop starts at lambda = 1/s (the centroid) and keeps the coordinate
// loop's stop test, step <= tolerance * (1 + spread).
//
// Near an input point the identity cancels: once some
// (D lambda)_k - lambda^T D lambda / 2 <= 1e-6 (D lambda)_k it can no
// longer resolve ||y - v_k|| to Kuhn's snap radius.  The loop then hands
// off: it materializes y (the centroid itself, as mean(points), when this
// happens at iteration 0) and continues in the coordinate-space loop, which
// keeps Kuhn's anchor test and push; the iteration count carries on.
//
// Two entry points share that loop.  geometric_median(batch, distances,
// indices) reads the index block of one DistanceMatrix built over the whole
// batch, so the C(n, n - t) subset medians of the hyperbox rules pay for
// one O(n^2 d) build; geometric_median(points) builds a private Gram-trick
// DistanceMatrix over its own rows.  The matrix is always a Gram-trick
// build made for the kernel, never a workspace's (which may be a test's
// per-pair oracle or a sparse Gram), so no result depends on how a
// caller's workspace was built.  The points are GradientBatch rows, owned
// or a borrowed view, read in place.

#include <cstddef>
#include <vector>

#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"

namespace bcl {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Options controlling the Weiszfeld iteration.
struct WeiszfeldOptions {
  std::size_t max_iterations = 1000;
  /// Stop when the iterate moves less than `tolerance * (1 + scale)`,
  /// where scale is the spread of the input points.
  double tolerance = 1e-10;
};

/// Result of a geometric-median computation.
struct WeiszfeldResult {
  Vector point;
  std::size_t iterations = 0;
  bool converged = false;
  /// True when the weight-space loop handed off to the coordinate loop
  /// near an input point.
  bool coordinate_handoff = false;
  /// sum_i ||v_i - point||, the minimized objective.
  double objective = 0.0;
};

/// Computes the geometric median of a non-empty batch's rows.  For one
/// point the answer is the point; for two points the midpoint (every point
/// on the segment is a minimizer; the midpoint is the canonical symmetric
/// choice).  When more than n/2 rows are equal (compared lexicographically,
/// so -0.0 == 0.0), the first of them by index is the median.  Otherwise
/// the weight-space loop runs over a private DistanceMatrix of the rows.
/// Over more than 128 rows the coordinate loop runs from the centroid
/// instead: there the m x m build (and its memory, ~1.6 GB at m = 10^4)
/// costs more than the iterations it saves.
WeiszfeldResult geometric_median(const GradientBatch& points,
                                 const WeiszfeldOptions& options = {});

/// The geometric median of batch rows `indices` (in that order), with the
/// same closed forms and loop as the form above, iterating on the index
/// block of `distances`, a DistanceMatrix built over `batch`.  Over every
/// row of a batch it equals geometric_median(batch) bit for bit.  Throws
/// std::invalid_argument on an empty index set, an index >= batch.rows(),
/// or a matrix whose size differs from batch.rows().
WeiszfeldResult geometric_median(const GradientBatch& batch,
                                 const DistanceMatrix& distances,
                                 const std::vector<std::size_t>& indices,
                                 const WeiszfeldOptions& options = {});

/// Convenience wrapper returning only the median vector.
Vector geometric_median_point(const GradientBatch& points,
                              const WeiszfeldOptions& options = {});

/// The Fermat objective sum_i ||v_i - y|| (throws std::invalid_argument
/// unless y has the batch's dimension).
double geometric_median_objective(const GradientBatch& points,
                                  const Vector& y);

/// Smoothed Weiszfeld of Pillutla et al. (RFA): weights 1/max(nu, dist),
/// which removes the anchor singularity at the cost of solving a smoothed
/// objective.  nu is an absolute smoothing radius; the result converges to
/// the geometric median as nu -> 0.  Runs in coordinate space.
WeiszfeldResult smoothed_geometric_median(const GradientBatch& points,
                                          double nu,
                                          const WeiszfeldOptions& options = {});

/// The registry metrics of the kernel, resolved once per rule call: each
/// result's iteration count in the `weiszfeld.iterations` histogram (the
/// closed forms count 0), hand-offs in `weiszfeld.coordinate_handoffs`,
/// and results that hit max_iterations in `weiszfeld.unconverged`.  A null
/// registry records nothing.  record() is safe from pool workers.
class WeiszfeldMetrics {
 public:
  explicit WeiszfeldMetrics(obs::MetricsRegistry* registry);
  void record(const WeiszfeldResult& result) const;

 private:
  obs::Histogram* iterations_ = nullptr;
  obs::Counter* handoffs_ = nullptr;
  obs::Counter* unconverged_ = nullptr;
};

}  // namespace bcl
