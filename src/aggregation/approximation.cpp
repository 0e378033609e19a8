#include "aggregation/approximation.hpp"

#include <limits>
#include <stdexcept>

#include "aggregation/hyperbox_rules.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

// Subset size n - t of S_geo / S_mean over `inputs` (throws unless t < n).
std::size_t subset_size(const VectorList& inputs, std::size_t t) {
  if (t >= inputs.size()) {
    throw std::invalid_argument("compute_sgeo/compute_smean: t must be < n");
  }
  return inputs.size() - t;
}

// Every form's point, as one row each (on `pool` when set).
VectorList materialize_all(const GradientBatch& batch,
                           const std::vector<MedianForm>& forms,
                           ThreadPool* pool) {
  VectorList points(forms.size());
  const auto run = [&](std::size_t c) {
    points[c] = materialize(forms[c], batch);
  };
  if (pool != nullptr) {
    pool->parallel_for_dynamic(0, forms.size(), run);
  } else {
    for (std::size_t c = 0; c < forms.size(); ++c) run(c);
  }
  return points;
}

ApproximationReport measure(const VectorList& candidate_set,
                            Vector true_aggregate, const Vector& output) {
  ApproximationReport report;
  report.true_aggregate = std::move(true_aggregate);
  report.covering_ball = minimum_enclosing_ball(candidate_set);
  report.distance_to_true = distance(output, report.true_aggregate);
  if (report.covering_ball.radius > 0.0) {
    report.ratio = report.distance_to_true / report.covering_ball.radius;
  } else {
    report.ratio = report.distance_to_true == 0.0
                       ? 0.0
                       : std::numeric_limits<double>::infinity();
  }
  return report;
}

}  // namespace

VectorList compute_sgeo(const VectorList& inputs, std::size_t t,
                        ThreadPool* pool, const WeiszfeldOptions& options) {
  const std::size_t keep = subset_size(inputs, t);
  check_subset_budget("compute_sgeo", inputs.size(), keep);
  const GradientBatch batch = GradientBatch::from(inputs);
  // BOX-GEOM's subset medians, materialized.
  const OrderStatistics table(batch, batch.rows() - keep + 1, pool);
  return materialize_all(
      batch, subset_geometric_medians(batch, keep, table, pool, options),
      pool);
}

VectorList compute_smean(const VectorList& inputs, std::size_t t,
                         ThreadPool* pool) {
  const std::size_t keep = subset_size(inputs, t);
  check_subset_budget("compute_smean", inputs.size(), keep);
  const GradientBatch batch = GradientBatch::from(inputs);
  return materialize_all(batch, subset_means(batch, keep), pool);
}

ApproximationReport measure_geo_approximation(
    const VectorList& all_inputs, const VectorList& honest_inputs,
    std::size_t t, const Vector& output, ThreadPool* pool) {
  if (honest_inputs.empty()) {
    throw std::invalid_argument("measure_geo_approximation: no honest inputs");
  }
  return measure(compute_sgeo(all_inputs, t, pool),
                 geometric_median_point(GradientBatch::from(honest_inputs)),
                 output);
}

ApproximationReport measure_mean_approximation(
    const VectorList& all_inputs, const VectorList& honest_inputs,
    std::size_t t, const Vector& output, ThreadPool* pool) {
  if (honest_inputs.empty()) {
    throw std::invalid_argument("measure_mean_approximation: no honest inputs");
  }
  return measure(compute_smean(all_inputs, t, pool), mean(honest_inputs),
                 output);
}

}  // namespace bcl
