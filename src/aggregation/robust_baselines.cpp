#include "aggregation/robust_baselines.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "linalg/stats.hpp"

namespace bcl {

Vector RfaRule::do_aggregate(const GradientBatch& batch,
                             AggregationWorkspace& /*workspace*/,
                             const AggregationContext& /*ctx*/) const {
  // Scale the absolute smoothing radius by the data spread so the rule is
  // scale-equivariant.
  const double spread = Hyperbox::bounding(batch).diagonal();
  const double nu = std::max(nu_ * (1.0 + spread), 1e-300);
  return smoothed_geometric_median(batch, nu, options_).point;
}

Vector CenteredClippingRule::do_aggregate(
    const GradientBatch& batch, AggregationWorkspace& /*workspace*/,
    const AggregationContext& /*ctx*/) const {
  const std::size_t m = batch.rows();
  Vector center = coordinatewise_median(batch);
  Vector residual(batch.dim());
  const auto residual_of = [&](std::size_t i) {
    const double* row = batch.row(i);
    for (std::size_t k = 0; k < residual.size(); ++k) {
      residual[k] = row[k] - center[k];
    }
  };
  std::vector<double> norms(m);
  for (std::size_t it = 0; it < iterations_; ++it) {
    // Clip radius: tau_scale times the median distance to the center.
    for (std::size_t i = 0; i < m; ++i) {
      residual_of(i);
      norms[i] = norm2(residual);
    }
    const double tau = tau_scale_ * median(norms);
    Vector shift = zeros(center.size());
    for (std::size_t i = 0; i < m; ++i) {
      residual_of(i);
      const double factor =
          (tau > 0.0 && norms[i] > tau) ? tau / norms[i] : 1.0;
      axpy(shift, factor / static_cast<double>(m), residual);
    }
    axpy(center, 1.0, shift);
  }
  return center;
}

Vector NormClippingRule::do_aggregate(const GradientBatch& batch,
                                      AggregationWorkspace& /*workspace*/,
                                      const AggregationContext& /*ctx*/) const {
  const std::size_t m = batch.rows();
  const std::size_t d = batch.dim();
  std::vector<double> norms(m);
  for (std::size_t i = 0; i < m; ++i) {
    norms[i] = std::sqrt(kernels::dot_seq(batch.row(i), batch.row(i), d));
  }
  const double bound = median(norms);
  Vector out = zeros(d);
  for (std::size_t i = 0; i < m; ++i) {
    const double factor =
        (bound > 0.0 && norms[i] > bound) ? bound / norms[i] : 1.0;
    kernels::axpy(out.data(), factor / static_cast<double>(m), batch.row(i),
                  d);
  }
  return out;
}

}  // namespace bcl
