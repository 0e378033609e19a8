#include "aggregation/sharded.hpp"

#include <algorithm>
#include <cstring>

#include "aggregation/budget.hpp"

namespace bcl {

Vector aggregate_sharded(const GradientBatch& batch,
                         AggregationWorkspace& workspace,
                         const AggregationRule& shard_rule,
                         const AggregationRule& root_rule, std::size_t shards,
                         const AggregationContext& ctx) {
  const std::size_t m = batch.rows();
  const std::size_t d = batch.dim();
  const std::size_t s = std::min(std::max<std::size_t>(shards, 1), m);
  if (s <= 1) {
    return shard_rule.aggregate(batch, workspace, ctx);
  }

  // MEAN over MEAN: algebraically the global mean, computed here in global
  // row order so the result is bitwise independent of the shard count.
  if (shard_rule.name() == "MEAN" && root_rule.name() == "MEAN") {
    return mean(batch);
  }

  // Balanced contiguous slices: the first (m % s) shards get one extra row.
  GradientBatch shard_outputs(s, d);
  const std::size_t base = m / s;
  const std::size_t extra = m % s;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t rows = base + (i < extra ? 1 : 0);
    GradientBatch slice(rows, d);
    // Per-row copy so a borrowed view batch (non-contiguous rows) slices
    // identically to an owned one; same bytes either way.
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(slice.row(r), batch.row(begin + r), d * sizeof(double));
    }
    AggregationContext shard_ctx;
    shard_ctx.n = rows;
    shard_ctx.t = clamp_byzantine_budget(ctx.t, rows);
    shard_ctx.pool = ctx.pool;
    shard_ctx.metrics = ctx.metrics;
    AggregationWorkspace shard_ws(slice, ctx.pool);
    shard_outputs.set_row(i, shard_rule.aggregate(slice, shard_ws, shard_ctx));
    begin += rows;
  }

  AggregationContext root_ctx;
  root_ctx.n = s;
  root_ctx.t = root_byzantine_budget(ctx.t, s);
  root_ctx.pool = ctx.pool;
  root_ctx.metrics = ctx.metrics;
  AggregationWorkspace root_ws(shard_outputs, ctx.pool);
  return root_rule.aggregate(shard_outputs, root_ws, root_ctx);
}

}  // namespace bcl
