#include "geometry/weiszfeld.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// Row i's pointer at [i]: the row table the coordinate passes read.
std::vector<const double*> row_table(const GradientBatch& points) {
  std::vector<const double*> rows(points.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = points.row(i);
  return rows;
}

// The buffers of one coordinate-space loop call, allocated once: the row
// table, ||row_i - y|| per row, the weights and the next iterate.
struct CoordinatePasses {
  explicit CoordinatePasses(const GradientBatch& points)
      : rows(row_table(points)),
        dist(points.rows()),
        weights(points.rows()),
        next(points.dim()) {}

  // dist[i] = ||row_i - y||, distance()'s value.
  void distances(const Vector& y) {
    kernels::squared_distances(rows.data(), rows.size(), y.data(), y.size(),
                               dist.data());
    for (double& x : dist) x = std::sqrt(x);
  }

  // next = sum_i weights[i] row_i / denominator over every row; returns
  // ||next - y||.
  double quotient(double denominator, const Vector& y) {
    return std::sqrt(kernels::weighted_quotient(
        rows.data(), weights.data(), rows.size(), denominator, y.data(),
        y.size(), next.data()));
  }

  std::vector<const double*> rows;
  std::vector<double> dist;
  std::vector<double> weights;
  Vector next;
};

// Three-way lexicographic compare of two rows, with equal meaning equal
// under == in every coordinate (so -0.0 == 0.0).  NaN sorts after every
// number and equals NaN, which keeps the order a strict weak one.
// Bitwise-equal rows, the common equal case, are settled by memcmp.
int compare_rows(const double* a, const double* b, std::size_t d) {
  if (std::memcmp(a, b, d * sizeof(double)) == 0) return 0;
  for (std::size_t k = 0; k < d; ++k) {
    const double x = a[k];
    const double y = b[k];
    if (x == y) continue;
    if (x < y) return -1;
    if (y < x) return 1;
    const bool x_nan = std::isnan(x);
    if (x_nan != std::isnan(y)) return x_nan ? 1 : -1;
  }
  return 0;
}

// out = block * x for the s x s row-major block.
void block_times(const std::vector<double>& block, const std::vector<double>& x,
                 std::vector<double>& out) {
  const std::size_t s = x.size();
  for (std::size_t k = 0; k < s; ++k) {
    out[k] = kernels::dot_seq(block.data() + k * s, x.data(), s);
  }
}

}  // namespace

MedianForm weiszfeld_coordinate_loop(const GradientBatch& points, Vector y,
                                     std::size_t first, double spread,
                                     const WeiszfeldOptions& options) {
  MedianForm form;
  form.kind = MedianForm::Kind::kPoint;
  form.iterations = first;
  // The last (or converged) iterate.
  const auto finish = [&](bool converged) {
    form.point = std::move(y);
    form.converged = converged;
    form.coordinate_iterations = form.iterations - first;
    return std::move(form);
  };
  const std::size_t d = points.dim();
  const std::size_t n = points.rows();
  const double step_tol = options.tolerance * (1.0 + spread);
  const double snap = 1e-14 * (1.0 + spread);
  CoordinatePasses passes(points);
  Vector pull;  // summed unit directions from y to the unanchored rows
  for (std::size_t it = first; it < options.max_iterations; ++it) {
    form.iterations = it + 1;
    passes.distances(y);
    double denominator = 0.0;
    std::size_t anchor_multiplicity = 0;  // rows within snap of y
    for (std::size_t i = 0; i < n; ++i) {
      if (passes.dist[i] <= snap) {
        ++anchor_multiplicity;
        continue;
      }
      passes.weights[i] = 1.0 / passes.dist[i];
      denominator += passes.weights[i];
    }
    double step;
    if (anchor_multiplicity > 0) {
      // y sits on an input point.  Kuhn's optimality test: y is the
      // geometric median iff ||pull|| <= multiplicity of the anchor.
      pull.assign(d, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (passes.dist[i] <= snap) continue;
        const double* row = passes.rows[i];
        const double w = passes.weights[i];
        for (std::size_t k = 0; k < d; ++k) pull[k] += (row[k] - y[k]) * w;
      }
      const double pull_norm = norm2(pull);
      if (pull_norm <= static_cast<double>(anchor_multiplicity) + 1e-12) {
        return finish(true);
      }
      // Otherwise push y off the anchor along the pull direction by the
      // standard Kuhn step: move by (||pull|| - mult)/denominator.
      const double move =
          (pull_norm - static_cast<double>(anchor_multiplicity)) / denominator;
      std::copy(y.begin(), y.end(), passes.next.begin());
      axpy(passes.next, move / pull_norm, pull);
      step = distance(passes.next, y);
    } else {
      step = passes.quotient(denominator, y);
    }
    y.swap(passes.next);
    if (step <= step_tol) return finish(true);
  }
  return finish(false);
}

MedianForm weiszfeld_median(const GradientBatch& batch,
                            const DistanceMatrix& distances,
                            const std::vector<std::size_t>& indices,
                            double spread, const WeiszfeldOptions& options) {
  const std::size_t s = indices.size();
  std::vector<double> block(s * s);
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      block[a * s + b] = distances.dist2(indices[a], indices[b]);
    }
  }
  const double step_tol = options.tolerance * (1.0 + spread);

  // The iterate is lambda = w / denominator, and y is the coordinate
  // loop's quotient of the same weights; before the first step (no
  // denominator yet) it is the centroid.  Every vector here is this
  // call's own, so concurrent subset tasks share nothing but the matrix.
  std::vector<double> lambda(s, 1.0 / static_cast<double>(s));
  std::vector<double> w(s);
  std::vector<double> next_w(s);
  std::vector<double> d_lambda(s);
  std::vector<double> delta(s);
  double denominator = 0.0;
  std::size_t iterations = 0;
  const auto iterate = [&] {
    if (denominator == 0.0) return MedianForm::mean(indices);
    MedianForm form;
    form.kind = MedianForm::Kind::kWeights;
    form.rows = indices;
    form.weights = w;
    form.denominator = denominator;
    return form;
  };
  const auto finish = [&](bool converged) {
    MedianForm form = iterate();
    form.iterations = iterations;
    form.converged = converged;
    return form;
  };

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    iterations = it + 1;
    block_times(block, lambda, d_lambda);
    const double half_energy = 0.5 * kernels::dot_seq(lambda.data(),
                                                      d_lambda.data(), s);
    double next_denominator = 0.0;
    for (std::size_t k = 0; k < s; ++k) {
      const double dist2 = d_lambda[k] - half_energy;
      // Written so that a non-finite identity (squared distances past
      // DBL_MAX) hands off too, to the coordinate loop's handling.
      if (!(dist2 > kHandoffGuard * d_lambda[k])) {
        std::vector<const double*> table;
        MedianForm form = weiszfeld_coordinate_loop(
            rows_view(batch, indices, table), materialize(iterate(), batch),
            it, spread, options);
        form.coordinate_handoff = true;
        return form;
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
    if (std::sqrt(std::max(0.0, step2)) <= step_tol) return finish(true);
  }
  return finish(false);
}

MedianForm MedianForm::row(std::size_t i) {
  MedianForm form;
  form.rows = {i};
  return form;
}

MedianForm MedianForm::midpoint(std::size_t a, std::size_t b) {
  MedianForm form;
  form.kind = Kind::kMidpoint;
  form.rows = {a, b};
  return form;
}

MedianForm MedianForm::mean(const std::vector<std::size_t>& rows) {
  MedianForm form;
  form.kind = Kind::kWeights;
  form.rows = rows;
  form.weights.assign(rows.size(), 1.0);
  form.denominator = static_cast<double>(rows.size());
  return form;
}

const double* median_slice(const MedianForm& form, const GradientBatch& batch,
                           std::size_t k0, std::size_t k1, double* scratch) {
  const std::size_t width = k1 - k0;
  switch (form.kind) {
    case MedianForm::Kind::kRow:
      return batch.row(form.rows[0]) + k0;
    case MedianForm::Kind::kPoint:
      return form.point.data() + k0;
    case MedianForm::Kind::kMidpoint: {
      const double* a = batch.row(form.rows[0]) + k0;
      const double* b = batch.row(form.rows[1]) + k0;
      for (std::size_t c = 0; c < width; ++c) scratch[c] = 0.5 * (a[c] + b[c]);
      return scratch;
    }
    case MedianForm::Kind::kWeights:
      break;
  }
  std::fill(scratch, scratch + width, 0.0);
  for (std::size_t j = 0; j < form.rows.size(); ++j) {
    kernels::axpy(scratch, form.weights[j], batch.row(form.rows[j]) + k0,
                  width);
  }
  kernels::scale_inplace(scratch, 1.0 / form.denominator, width);
  return scratch;
}

Vector materialize(const MedianForm& form, const GradientBatch& batch) {
  Vector out(batch.dim());
  const double* p = median_slice(form, batch, 0, out.size(), out.data());
  if (p != out.data()) std::copy(p, p + out.size(), out.begin());
  return out;
}

RowClasses::RowClasses(const GradientBatch& batch) : class_of_(batch.rows()) {
  const std::size_t d = batch.dim();
  std::vector<std::size_t> order(batch.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int c = compare_rows(batch.row(a), batch.row(b), d);
    return c != 0 ? c < 0 : a < b;
  });
  // Equal rows are adjacent, the least index first.
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::size_t i = order[p];
    const bool joins = p > 0 && compare_rows(batch.row(order[p - 1]),
                                             batch.row(i), d) == 0;
    class_of_[i] = joins ? class_of_[order[p - 1]] : i;
  }
}

std::optional<std::size_t> RowClasses::majority(
    const std::vector<std::size_t>& indices) const {
  // A majority class has a member among the first ceil(s / 2) positions,
  // and counting from its first member counts all of it.
  const std::size_t s = indices.size();
  for (std::size_t j = 0; 2 * j < s; ++j) {
    const std::size_t cls = class_of_[indices[j]];
    std::size_t count = 0;
    for (std::size_t l = j; l < s; ++l) count += class_of_[indices[l]] == cls;
    if (2 * count > s) return indices[j];
  }
  return std::nullopt;
}

std::optional<MedianForm> closed_form_median(
    const RowClasses& classes, const std::vector<std::size_t>& indices) {
  if (indices.size() == 1) return MedianForm::row(indices[0]);
  if (indices.size() == 2) return MedianForm::midpoint(indices[0], indices[1]);
  if (const auto row = classes.majority(indices)) return MedianForm::row(*row);
  return std::nullopt;
}

namespace {

// The public result of a form over `batch`: its point, counts and the
// objective over `points`, the median's rows in order.
WeiszfeldResult to_result(MedianForm form, const GradientBatch& batch,
                          const GradientBatch& points) {
  WeiszfeldResult result;
  result.point = form.kind == MedianForm::Kind::kPoint
                     ? std::move(form.point)
                     : materialize(form, batch);
  result.iterations = form.iterations;
  result.converged = form.converged;
  result.coordinate_handoff = form.coordinate_handoff;
  result.coordinate_iterations = form.coordinate_iterations;
  result.objective = geometric_median_objective(points, result.point);
  return result;
}

}  // namespace

double geometric_median_objective(const GradientBatch& points,
                                  const Vector& y) {
  if (y.size() != points.dim()) {
    throw std::invalid_argument(
        "geometric_median_objective: dimension mismatch");
  }
  const std::vector<const double*> rows = row_table(points);
  std::vector<double> dist2(rows.size());
  kernels::squared_distances(rows.data(), rows.size(), y.data(), y.size(),
                             dist2.data());
  double s = 0.0;
  for (const double x : dist2) s += std::sqrt(x);
  return s;
}

WeiszfeldResult geometric_median(const GradientBatch& points,
                                 const WeiszfeldOptions& options) {
  if (points.empty()) {
    throw std::invalid_argument("geometric_median: empty point list");
  }
  std::vector<std::size_t> all(points.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::optional<MedianForm> form = closed_form_median(RowClasses(points), all);
  if (!form) {
    const double spread = Hyperbox::bounding(points).diagonal();
    if (spread == 0.0) {
      // Rows equal up to an underflowing difference.
      form = MedianForm::row(0);
    } else if (points.rows() > kWeightSpaceMaxRows) {
      form = weiszfeld_coordinate_loop(points, mean(points), 0, spread,
                                       options);
    } else {
      form = weiszfeld_median(points, DistanceMatrix(points), all, spread,
                              options);
    }
  }
  return to_result(std::move(*form), points, points);
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
  std::optional<MedianForm> form =
      closed_form_median(RowClasses(batch), indices);
  if (!form) {
    const double spread = Hyperbox::bounding(points).diagonal();
    form = spread == 0.0 ? MedianForm::row(indices[0])
                         : weiszfeld_median(batch, distances, indices, spread,
                                            options);
  }
  return to_result(std::move(*form), batch, points);
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
  WeiszfeldResult result;
  if (points.rows() == 1) {
    result.point = points.row_copy(0);
    result.converged = true;
    return result;
  }
  const double spread = Hyperbox::bounding(points).diagonal();
  const double step_tol = options.tolerance * (1.0 + spread);
  Vector y = mean(points);
  CoordinatePasses passes(points);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    passes.distances(y);
    double denominator = 0.0;
    for (std::size_t i = 0; i < points.rows(); ++i) {
      // Smoothing floor: the weight saturates once a point is within nu.
      passes.weights[i] = 1.0 / std::max(nu, passes.dist[i]);
      denominator += passes.weights[i];
    }
    const double step = passes.quotient(denominator, y);
    y.swap(passes.next);
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
  coordinate_iterations_ =
      &registry->counter("weiszfeld.coordinate_iterations");
  unconverged_ = &registry->counter("weiszfeld.unconverged");
}

void WeiszfeldMetrics::record(const WeiszfeldResult& result) const {
  record(result.iterations, result.coordinate_iterations,
         result.coordinate_handoff, result.converged);
}

void WeiszfeldMetrics::record(const MedianForm& form) const {
  record(form.iterations, form.coordinate_iterations,
         form.coordinate_handoff, form.converged);
}

void WeiszfeldMetrics::record(std::size_t iterations,
                              std::size_t coordinate_iterations, bool handoff,
                              bool converged) const {
  if (iterations_ == nullptr) return;
  iterations_->record(static_cast<double>(iterations));
  if (handoff) handoffs_->add();
  coordinate_iterations_->add(coordinate_iterations);
  if (!converged) unconverged_->add();
}

}  // namespace bcl
