#pragma once
// Differential oracle for the Weiszfeld kernel: the same closed forms,
// then the Kuhn-modified loop in coordinate space from the centroid.
// Every iteration reads all n rows (O(n * d) per iteration) one row at a
// time and runs Kuhn's anchor test on coordinate distances, with no
// weight-space step and no hand-off.  The loop is also callable from any
// iterate (oracle_coordinate_loop), the reference for production's
// weiszfeld_coordinate_loop, and the Fermat objective and RFA's smoothed
// loop have naive twins here too.  Nothing in src/ calls it; tests
// compare both entry points of geometric_median, the coordinate loop, the
// objective and smoothed_geometric_median against it.

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "geometry/weiszfeld.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/kernels.hpp"

namespace bcl::test {

// ||row - y|| with distance()'s arithmetic: coordinate-order accumulation
// of squared differences, one sqrt.
inline double oracle_row_distance(const double* row, const Vector& y) {
  double s = 0.0;
  for (std::size_t k = 0; k < y.size(); ++k) {
    const double diff = row[k] - y[k];
    s += diff * diff;
  }
  return std::sqrt(s);
}

// sum_i ||v_i - y||, the terms added in row order.
inline double oracle_objective(const GradientBatch& points, const Vector& y) {
  double s = 0.0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    s += oracle_row_distance(points.row(i), y);
  }
  return s;
}

// The Kuhn-modified coordinate loop over all rows of `points` from iterate
// y at iteration `first` (the count runs on from there), with `spread`
// the rows' bounding-box diagonal.
inline WeiszfeldResult oracle_coordinate_loop(const GradientBatch& points,
                                              Vector y, std::size_t first,
                                              double spread,
                                              const WeiszfeldOptions& options) {
  const std::size_t d = points.dim();
  const std::size_t n = points.rows();
  WeiszfeldResult result;
  result.iterations = first;
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
      const double dist_i = oracle_row_distance(row, y);
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
        result.objective = oracle_objective(points, y);
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
        result.objective = oracle_objective(points, y);
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
      result.objective = oracle_objective(points, y);
      return result;
    }
  }
  result.point = y;
  result.converged = false;
  result.objective = oracle_objective(points, y);
  return result;
}

inline WeiszfeldResult oracle_geometric_median(
    const GradientBatch& points, const WeiszfeldOptions& options = {}) {
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
    result.objective = oracle_objective(points, result.point);
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
        result.objective = oracle_objective(points, result.point);
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
  // Start from the centroid, the standard initial iterate.
  return oracle_coordinate_loop(points, mean(points), 0, spread, options);
}

// RFA's smoothed Weiszfeld as the naive loop: weights 1 / max(nu, dist),
// one row at a time, from the centroid.
inline WeiszfeldResult oracle_smoothed_geometric_median(
    const GradientBatch& points, double nu,
    const WeiszfeldOptions& options = {}) {
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
      const double w =
          1.0 / std::max(nu, oracle_row_distance(points.row(i), y));
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
  result.objective = oracle_objective(points, result.point);
  return result;
}

}  // namespace bcl::test
