#pragma once
// Differential oracle for the Weiszfeld kernel: the same closed forms,
// then the Kuhn-modified loop in coordinate space from the centroid.
// Every iteration reads all n rows (O(n * d) per iteration) and runs
// Kuhn's anchor test on coordinate distances, with no weight-space step
// and no hand-off.  Nothing in src/ calls it; tests compare both entry
// points of geometric_median against it.

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

}  // namespace bcl::test
