#include "geometry/weiszfeld.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "linalg/hyperbox.hpp"
#include "linalg/kernels.hpp"

namespace bcl {

namespace {

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
  const std::size_t d = points.dim();
  const std::size_t n = points.rows();
  WeiszfeldResult result;

  if (n == 1) {
    result.point = points.row_copy(0);
    result.converged = true;
    return result;
  }
  if (n == 2) {
    result.point = scale(add(points.row_copy(0), points.row_copy(1)), 0.5);
    result.converged = true;
    result.objective = geometric_median_objective(points, result.point);
    return result;
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
        result.point.assign(p, p + d);
        result.converged = true;
        result.objective = geometric_median_objective(points, result.point);
        return result;
      }
    }
  }

  const double spread = Hyperbox::bounding(points).diagonal();
  if (spread == 0.0) {
    // All points identical (not caught above only if n is even and split
    // impossible; defensive).
    result.point = points.row_copy(0);
    result.converged = true;
    return result;
  }
  const double step_tol = options.tolerance * (1.0 + spread);
  const double snap = 1e-14 * (1.0 + spread);

  // Start from the centroid, the standard initial iterate.
  Vector y = mean(points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
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
        result.point = y;
        result.converged = true;
        result.objective = geometric_median_objective(points, y);
        return result;
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
        result.point = y;
        result.converged = true;
        result.objective = geometric_median_objective(points, y);
        return result;
      }
      continue;
    }
    Vector next = scale(numerator, 1.0 / denominator);
    const double step = distance(next, y);
    y = std::move(next);
    if (step <= step_tol) {
      result.point = y;
      result.converged = true;
      result.objective = geometric_median_objective(points, y);
      return result;
    }
  }
  result.point = y;
  result.converged = false;
  result.objective = geometric_median_objective(points, y);
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

}  // namespace bcl
