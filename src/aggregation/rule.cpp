#include "aggregation/rule.hpp"

#include <cmath>
#include <stdexcept>

namespace bcl {

void validate_inbox(const GradientBatch& batch,
                    const AggregationWorkspace& workspace,
                    const AggregationContext& ctx) {
  if (&workspace.batch() != &batch) {
    throw std::invalid_argument(
        "aggregate: workspace was built over a different batch");
  }
  if (ctx.n == 0) {
    throw std::invalid_argument("AggregationContext: n must be positive");
  }
  if (ctx.t >= ctx.n) {
    throw std::invalid_argument("AggregationContext: t must be < n");
  }
  if (batch.rows() < ctx.keep()) {
    throw std::invalid_argument(
        "aggregate: fewer than n - t vectors received");
  }
  if (batch.rows() > ctx.n) {
    throw std::invalid_argument("aggregate: more than n vectors received");
  }
  const std::size_t d = batch.dim();
  if (d == 0) throw std::invalid_argument("aggregate: zero-dimensional input");
  // Row-based walk so borrowed view batches (no flat buffer) validate the
  // same way as owned ones.
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    const double* row = batch.row(i);
    for (std::size_t k = 0; k < d; ++k) {
      if (!std::isfinite(row[k])) {
        throw std::invalid_argument(
            "aggregate: received vector contains a non-finite value");
      }
    }
  }
}

Vector AggregationRule::aggregate(const GradientBatch& batch,
                                  AggregationWorkspace& workspace,
                                  const AggregationContext& ctx) const {
  validate_inbox(batch, workspace, ctx);
  return do_aggregate(batch, workspace, ctx);
}

Vector AggregationRule::aggregate(const VectorList& received,
                                  const AggregationContext& ctx) const {
  const GradientBatch batch = GradientBatch::from(received);
  AggregationWorkspace workspace(batch, ctx.pool);
  return aggregate(batch, workspace, ctx);
}

}  // namespace bcl
