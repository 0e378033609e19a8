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
// The points are the rows of a GradientBatch, owned or a borrowed view:
// the rules pass their inbox as is, and the subset rules a rows_view of
// one subset, so no point is copied before the iteration reads it.

#include <cstddef>

#include "linalg/gradient_batch.hpp"

namespace bcl {

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
  /// sum_i ||v_i - point||, the minimized objective.
  double objective = 0.0;
};

/// Computes the geometric median of a non-empty batch's rows.  For one
/// point the answer is the point; for two points the midpoint (every point
/// on the segment is a minimizer; the midpoint is the canonical symmetric
/// choice).  When more than n/2 rows are equal (compared lexicographically,
/// so -0.0 == 0.0), the first of them by index is the median.
WeiszfeldResult geometric_median(const GradientBatch& points,
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
/// the geometric median as nu -> 0.
WeiszfeldResult smoothed_geometric_median(const GradientBatch& points,
                                          double nu,
                                          const WeiszfeldOptions& options = {});

}  // namespace bcl
