#include "geometry/weiszfeld.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "linalg/hyperbox.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"

namespace bcl {

namespace {

// Hand-off guard of the weight-space loop.  ||y - v_k||^2 comes out of
// (D lambda)_k - lambda^T D lambda / 2 with an absolute error of a few ulp
// of (D lambda)_k; once the difference falls to 1e-6 of (D lambda)_k that
// error reaches ~1e-10 of the distance itself, and it grows as y closes
// in, so the identity can no longer resolve Kuhn's snap of
// 1e-14 * (1 + spread).  From there the coordinate loop takes over.
constexpr double kHandoffGuard = 1e-6;

// Row bound of the weight-space path of geometric_median(points).  Its
// private m x m Gram-trick build costs O(m^2 d) and 2 m^2 doubles, against
// O(iterations m d) for the coordinate loop: at d = 1842 and 11 iterations
// the weight-space path took 3.0 ms vs 4.9 ms at m = 100, but 26 vs 17 ms
// at m = 300 and 281 vs 65 ms at m = 1000, and a 10^4-row cohort inbox
// would need ~1.6 GB for the matrix and its Gram.  The subset entry point
// needs no bound: one build over m rows always costs less than the
// C(m, m - t) >= m coordinate-space runs it replaces.
constexpr std::size_t kWeightSpaceMaxRows = 128;

// ||row - y|| with distance()'s arithmetic: coordinate-order accumulation
// of squared differences, one sqrt.
double row_distance(const double* row, const Vector& y) {
  double s = 0.0;
  for (std::size_t k = 0; k < y.size(); ++k) {
    const double diff = row[k] - y[k];
    s += diff * diff;
  }
  return std::sqrt(s);
}

// The converged (or last) iterate y: point, flag and objective.
void finish(const GradientBatch& points, Vector y, bool converged,
            WeiszfeldResult& result) {
  result.objective = geometric_median_objective(points, y);
  result.point = std::move(y);
  result.converged = converged;
}

// The closed forms, tried before any iteration: n = 1, the n = 2 midpoint,
// the majority map and zero spread.  Returns true with `result` filled
// when one applies; otherwise sets `spread` to the bounding-box diagonal
// of the rows.
bool closed_form(const GradientBatch& points, WeiszfeldResult& result,
                 double& spread) {
  const std::size_t d = points.dim();
  const std::size_t n = points.rows();
  if (n == 1) {
    result.point = points.row_copy(0);
    result.converged = true;
    return true;
  }
  if (n == 2) {
    finish(points, scale(add(points.row_copy(0), points.row_copy(1)), 0.5),
           true, result);
    return true;
  }

  // Majority property: if some point has multiplicity > n/2 it is the
  // geometric median.  Rows are keyed by lexicographic comparison, so the
  // key of each class is its first row.
  {
    const auto row_less = [d](const double* a, const double* b) {
      return std::lexicographical_compare(a, a + d, b, b + d);
    };
    std::map<const double*, std::size_t, decltype(row_less)> counts(row_less);
    for (std::size_t i = 0; i < n; ++i) ++counts[points.row(i)];
    for (const auto& [p, c] : counts) {
      if (2 * c > n) {
        finish(points, Vector(p, p + d), true, result);
        return true;
      }
    }
  }

  spread = Hyperbox::bounding(points).diagonal();
  if (spread == 0.0) {
    // All points identical (not caught above only if n is even and split
    // impossible; defensive).
    result.point = points.row_copy(0);
    result.converged = true;
    return true;
  }
  return false;
}

// The Kuhn-modified coordinate-space loop from iterate y at iteration
// `first`: the centroid at iteration 0 past the row bound, or the
// weight-space loop's iterate at a hand-off.
void coordinate_loop(const GradientBatch& points, Vector y, std::size_t first,
                     double spread, const WeiszfeldOptions& options,
                     WeiszfeldResult& result) {
  const std::size_t d = points.dim();
  const std::size_t n = points.rows();
  const double step_tol = options.tolerance * (1.0 + spread);
  const double snap = 1e-14 * (1.0 + spread);
  for (std::size_t it = first; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    Vector numerator = zeros(d);
    double denominator = 0.0;
    std::size_t anchor_multiplicity = 0;  // rows within snap of y
    Vector pull = zeros(d);  // summed unit directions from y to other points
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = points.row(i);
      const double dist_i = row_distance(row, y);
      if (dist_i <= snap) {
        ++anchor_multiplicity;
        continue;
      }
      const double w = 1.0 / dist_i;
      kernels::axpy(numerator.data(), w, row, d);
      denominator += w;
      for (std::size_t k = 0; k < d; ++k) {
        pull[k] += (row[k] - y[k]) * w;
      }
    }
    if (anchor_multiplicity > 0) {
      // y sits on an input point.  Kuhn's optimality test: y is the
      // geometric median iff ||pull|| <= multiplicity of the anchor.
      const double pull_norm = norm2(pull);
      if (pull_norm <= static_cast<double>(anchor_multiplicity) + 1e-12) {
        finish(points, std::move(y), true, result);
        return;
      }
      // Otherwise push y off the anchor along the pull direction by the
      // standard Kuhn step: move by (||pull|| - mult)/denominator.
      const double move =
          (pull_norm - static_cast<double>(anchor_multiplicity)) / denominator;
      Vector next = y;
      axpy(next, move / pull_norm, pull);
      const double step = distance(next, y);
      y = std::move(next);
      if (step <= step_tol) {
        finish(points, std::move(y), true, result);
        return;
      }
      continue;
    }
    Vector next = scale(numerator, 1.0 / denominator);
    const double step = distance(next, y);
    y = std::move(next);
    if (step <= step_tol) {
      finish(points, std::move(y), true, result);
      return;
    }
  }
  finish(points, std::move(y), false, result);
}

// out = block * x for the s x s row-major block.
void block_times(const std::vector<double>& block, const std::vector<double>& x,
                 std::vector<double>& out) {
  const std::size_t s = x.size();
  for (std::size_t k = 0; k < s; ++k) {
    out[k] = kernels::dot_seq(block.data() + k * s, x.data(), s);
  }
}

// The weight-space loop over `points`, whose squared pairwise distances are
// distances.dist2(indices[a], indices[b]).  Every vector here is this
// call's own, so concurrent subset tasks share nothing but the matrix.
void weight_space_loop(const GradientBatch& points,
                       const DistanceMatrix& distances,
                       const std::vector<std::size_t>& indices, double spread,
                       const WeiszfeldOptions& options,
                       WeiszfeldResult& result) {
  const std::size_t s = points.rows();
  const std::size_t d = points.dim();
  std::vector<double> block(s * s);
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      block[a * s + b] = distances.dist2(indices[a], indices[b]);
    }
  }
  const double step_tol = options.tolerance * (1.0 + spread);

  // The iterate is lambda = w / denominator, and y is the coordinate
  // loop's quotient of the same weights; before the first step (no
  // denominator yet) it is the centroid.
  std::vector<double> lambda(s, 1.0 / static_cast<double>(s));
  std::vector<double> w(s);
  std::vector<double> next_w(s);
  std::vector<double> d_lambda(s);
  std::vector<double> delta(s);
  double denominator = 0.0;
  const auto iterate = [&] {
    if (denominator == 0.0) return mean(points);
    Vector numerator = zeros(d);
    for (std::size_t j = 0; j < s; ++j) {
      kernels::axpy(numerator.data(), w[j], points.row(j), d);
    }
    return scale(numerator, 1.0 / denominator);
  };

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    block_times(block, lambda, d_lambda);
    const double half_energy = 0.5 * kernels::dot_seq(lambda.data(),
                                                      d_lambda.data(), s);
    double next_denominator = 0.0;
    for (std::size_t k = 0; k < s; ++k) {
      const double dist2 = d_lambda[k] - half_energy;
      // Written so that a non-finite identity (squared distances past
      // DBL_MAX) hands off too, to the coordinate loop's handling.
      if (!(dist2 > kHandoffGuard * d_lambda[k])) {
        result.coordinate_handoff = true;
        coordinate_loop(points, iterate(), it, spread, options, result);
        return;
      }
      next_w[k] = 1.0 / std::sqrt(dist2);
      next_denominator += next_w[k];
    }
    for (std::size_t k = 0; k < s; ++k) {
      const double next_lambda = next_w[k] / next_denominator;
      delta[k] = next_lambda - lambda[k];
      lambda[k] = next_lambda;
    }
    w.swap(next_w);
    denominator = next_denominator;
    // ||y' - y||^2 = -delta^T D delta / 2, since delta sums to zero.
    block_times(block, delta, d_lambda);
    const double step2 =
        -0.5 * kernels::dot_seq(delta.data(), d_lambda.data(), s);
    if (std::sqrt(std::max(0.0, step2)) <= step_tol) {
      finish(points, iterate(), true, result);
      return;
    }
  }
  finish(points, iterate(), false, result);
}

}  // namespace

double geometric_median_objective(const GradientBatch& points,
                                  const Vector& y) {
  if (y.size() != points.dim()) {
    throw std::invalid_argument(
        "geometric_median_objective: dimension mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    s += row_distance(points.row(i), y);
  }
  return s;
}

WeiszfeldResult geometric_median(const GradientBatch& points,
                                 const WeiszfeldOptions& options) {
  if (points.empty()) {
    throw std::invalid_argument("geometric_median: empty point list");
  }
  WeiszfeldResult result;
  double spread = 0.0;
  if (closed_form(points, result, spread)) return result;
  if (points.rows() > kWeightSpaceMaxRows) {
    coordinate_loop(points, mean(points), 0, spread, options, result);
    return result;
  }
  std::vector<std::size_t> all(points.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  weight_space_loop(points, DistanceMatrix(points), all, spread, options,
                    result);
  return result;
}

WeiszfeldResult geometric_median(const GradientBatch& batch,
                                 const DistanceMatrix& distances,
                                 const std::vector<std::size_t>& indices,
                                 const WeiszfeldOptions& options) {
  if (indices.empty()) {
    throw std::invalid_argument("geometric_median: empty index set");
  }
  if (distances.size() != batch.rows()) {
    throw std::invalid_argument(
        "geometric_median: distance matrix does not cover the batch");
  }
  for (const std::size_t i : indices) {
    if (i >= batch.rows()) {
      throw std::invalid_argument("geometric_median: row index out of range");
    }
  }
  std::vector<const double*> table;
  const GradientBatch points = rows_view(batch, indices, table);
  WeiszfeldResult result;
  double spread = 0.0;
  if (closed_form(points, result, spread)) return result;
  weight_space_loop(points, distances, indices, spread, options, result);
  return result;
}

Vector geometric_median_point(const GradientBatch& points,
                              const WeiszfeldOptions& options) {
  return geometric_median(points, options).point;
}

WeiszfeldResult smoothed_geometric_median(const GradientBatch& points,
                                          double nu,
                                          const WeiszfeldOptions& options) {
  if (points.empty()) {
    throw std::invalid_argument("smoothed_geometric_median: empty list");
  }
  if (nu <= 0.0) {
    throw std::invalid_argument("smoothed_geometric_median: nu must be > 0");
  }
  const std::size_t d = points.dim();
  WeiszfeldResult result;
  if (points.rows() == 1) {
    result.point = points.row_copy(0);
    result.converged = true;
    return result;
  }
  const double spread = Hyperbox::bounding(points).diagonal();
  const double step_tol = options.tolerance * (1.0 + spread);
  Vector y = mean(points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    Vector numerator = zeros(d);
    double denominator = 0.0;
    for (std::size_t i = 0; i < points.rows(); ++i) {
      // Smoothing floor: the weight saturates once a point is within nu.
      const double w = 1.0 / std::max(nu, row_distance(points.row(i), y));
      kernels::axpy(numerator.data(), w, points.row(i), d);
      denominator += w;
    }
    Vector next = scale(numerator, 1.0 / denominator);
    const double step = distance(next, y);
    y = std::move(next);
    if (step <= step_tol) {
      result.converged = true;
      break;
    }
  }
  result.point = std::move(y);
  result.objective = geometric_median_objective(points, result.point);
  return result;
}

WeiszfeldMetrics::WeiszfeldMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  iterations_ = &registry->histogram("weiszfeld.iterations");
  handoffs_ = &registry->counter("weiszfeld.coordinate_handoffs");
  unconverged_ = &registry->counter("weiszfeld.unconverged");
}

void WeiszfeldMetrics::record(const WeiszfeldResult& result) const {
  if (iterations_ == nullptr) return;
  iterations_->record(static_cast<double>(result.iterations));
  if (result.coordinate_handoff) handoffs_->add();
  if (!result.converged) unconverged_->add();
}

}  // namespace bcl
