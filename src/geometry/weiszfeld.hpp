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
// keeps Kuhn's anchor test and push; the iteration count carries on.  An
// iteration there is O(s * d): the kernels::squared_distances pass, then
// one kernels::weighted_quotient pass forming the numerator, the quotient
// and the step, or Kuhn's pull when y lies on a row.  Both keep the naive
// loop's every operation and its order (tests/weiszfeld_oracle.hpp).
//
// A median is first computed as a *form* (MedianForm), not a vector: one
// batch row (n = 1, a majority class, zero spread), a two-row midpoint,
// the weight-space loop's final weights, or the coordinate loop's
// materialized point after a hand-off.  A form's point is written slice by
// slice with the arithmetic the full-length materialization uses, so the
// hyperbox rules fold C(n, n - t) subset medians into their bounding box
// one coordinate tile at a time without ever holding C x d values, and
// the majority closed form costs nothing per subset once the batch's row
// classes (RowClasses) are known.
//
// Two public entry points share those pieces and materialize the form.
// geometric_median(batch, distances, indices) reads the index block of one
// DistanceMatrix built over the whole batch; geometric_median(points)
// builds a private Gram-trick DistanceMatrix over its own rows.  Only these
// two compute the Fermat objective.  The matrix is always a Gram-trick
// build made for the kernel, never a workspace's (which may be a test's
// per-pair oracle or a sparse Gram), so no result depends on how a
// caller's workspace was built.  The points are GradientBatch rows, owned
// or a borrowed view, read in place.

#include <cstddef>
#include <optional>
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
  /// The iterations of `iterations` that ran in the O(s * d) coordinate
  /// loop: those from the hand-off on, or all of them past the row bound.
  std::size_t coordinate_iterations = 0;
  /// sum_i ||v_i - point||, the minimized objective.
  double objective = 0.0;
};

/// A geometric median of batch rows kept as a form.  Its point is
///  - kRow: row rows[0], read in place;
///  - kMidpoint: 0.5 * (row rows[0] + row rows[1]);
///  - kWeights: (1.0 / denominator) * sum_j weights[j] * row rows[j], the
///    sum accumulated with kernels::axpy in j order from zero (the
///    weight-space loop's own quotient; a subset mean is weights 1 and
///    denominator s, bitwise mean_of_rows since 1.0 * x is exact);
///  - kPoint: `point`, the coordinate loop's iterate after a hand-off.
struct MedianForm {
  enum class Kind { kRow, kMidpoint, kWeights, kPoint };
  Kind kind = Kind::kRow;
  std::vector<std::size_t> rows;
  std::vector<double> weights;
  double denominator = 0.0;
  Vector point;
  std::size_t iterations = 0;
  bool converged = true;
  bool coordinate_handoff = false;
  std::size_t coordinate_iterations = 0;  // as in WeiszfeldResult

  static MedianForm row(std::size_t i);
  static MedianForm midpoint(std::size_t a, std::size_t b);
  /// The mean of `rows` as a weights form.
  static MedianForm mean(const std::vector<std::size_t>& rows);
};

/// Coordinates [k0, k1) of `form`'s point over `batch` (the batch whose
/// row indices the form holds): a pointer into the batch row or the
/// form's point for kRow / kPoint, otherwise written into `scratch`
/// (k1 - k0 doubles) and returned.  Each coordinate is computed exactly as
/// materialize() computes it.
const double* median_slice(const MedianForm& form, const GradientBatch& batch,
                           std::size_t k0, std::size_t k1, double* scratch);

/// The form's whole point.
Vector materialize(const MedianForm& form, const GradientBatch& batch);

/// Equality classes of a batch's rows: rows equal coordinate by coordinate
/// under == (so -0.0 == 0.0) share a class, the equivalence the majority
/// closed form counts in.  Built once per batch from one sort of the row indices
/// (lexicographic, ties by index; NaN sorts last and equals NaN), so every
/// subset's majority test afterwards costs O(s^2) index compares and
/// reads no coordinate.
class RowClasses {
 public:
  explicit RowClasses(const GradientBatch& batch);

  /// The first of `indices` (batch rows, in that order) whose class holds
  /// more than half of them; std::nullopt when no class does.
  std::optional<std::size_t> majority(
      const std::vector<std::size_t>& indices) const;

 private:
  std::vector<std::size_t> class_of_;  // the least row index of the class
};

/// The closed forms of the median of batch rows `indices`, tried before any
/// iteration: one row, the two-row midpoint, and the majority row.
std::optional<MedianForm> closed_form_median(
    const RowClasses& classes, const std::vector<std::size_t>& indices);

/// The weight-space loop (and its coordinate hand-off) over batch rows
/// `indices`, for a subset no closed form resolves and whose bounding-box
/// diagonal `spread` is positive.  Returns a kWeights or, after a
/// hand-off, a kPoint form with the loop's counts; computes no objective.
/// Concurrent calls share only `batch` and `distances`.
MedianForm weiszfeld_median(const GradientBatch& batch,
                            const DistanceMatrix& distances,
                            const std::vector<std::size_t>& indices,
                            double spread, const WeiszfeldOptions& options);

/// The Kuhn-modified coordinate-space loop over all rows of `points` from
/// iterate y at iteration `first` (counts run on from `first`), with
/// `spread` the rows' bounding-box diagonal: the weight-space loop's
/// hand-off continues here, and past the row bound geometric_median(points)
/// runs it from the centroid at iteration 0.  Each iteration is
/// kernels::squared_distances, then kernels::weighted_quotient, or Kuhn's
/// pull, test and push when some row lies within 1e-14 * (1 + spread) of
/// y.  Returns a kPoint form; coordinate_handoff is the caller's to set.
MedianForm weiszfeld_coordinate_loop(const GradientBatch& points, Vector y,
                                     std::size_t first, double spread,
                                     const WeiszfeldOptions& options);

/// Computes the geometric median of a non-empty batch's rows.  For one
/// point the answer is the point; for two points the midpoint (every point
/// on the segment is a minimizer; the midpoint is the canonical symmetric
/// choice).  When more than n/2 rows are equal (compared with ==, so
/// -0.0 == 0.0; RowClasses), the first of them by index is the median.
/// Otherwise the weight-space loop runs over a private DistanceMatrix of
/// the rows.
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
/// the O(s * d) iterations among them in `weiszfeld.coordinate_iterations`,
/// and results that hit max_iterations in `weiszfeld.unconverged`.  A null
/// registry records nothing.  record() is safe from pool workers.
class WeiszfeldMetrics {
 public:
  explicit WeiszfeldMetrics(obs::MetricsRegistry* registry);
  void record(const WeiszfeldResult& result) const;
  void record(const MedianForm& form) const;

 private:
  void record(std::size_t iterations, std::size_t coordinate_iterations,
              bool handoff, bool converged) const;

  obs::Histogram* iterations_ = nullptr;
  obs::Counter* handoffs_ = nullptr;
  obs::Counter* coordinate_iterations_ = nullptr;
  obs::Counter* unconverged_ = nullptr;
};

}  // namespace bcl
