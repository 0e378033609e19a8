#include "aggregation/approximation.hpp"

#include <limits>
#include <stdexcept>

#include "aggregation/hyperbox_rules.hpp"

namespace bcl {

namespace {

// Subset size n - t of S_geo / S_mean over `inputs` (throws unless t < n).
std::size_t subset_size(const VectorList& inputs, std::size_t t) {
  if (t >= inputs.size()) {
    throw std::invalid_argument("compute_sgeo/compute_smean: t must be < n");
  }
  return inputs.size() - t;
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
  const GradientBatch batch = GradientBatch::from(inputs);
  // One matrix for every subset median, as in BOX-GEOM.
  const DistanceMatrix distances(batch, pool);
  return subset_aggregates(
             batch, keep, pool,
             [&](const std::vector<std::size_t>& subset) {
               return geometric_median(batch, distances, subset, options)
                   .point;
             })
      .to_vectors();
}

VectorList compute_smean(const VectorList& inputs, std::size_t t,
                         ThreadPool* pool) {
  const std::size_t keep = subset_size(inputs, t);
  const GradientBatch batch = GradientBatch::from(inputs);
  return subset_aggregates(batch, keep, pool,
                           [&batch](const std::vector<std::size_t>& subset) {
                             return mean_of_rows(batch, subset);
                           })
      .to_vectors();
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
