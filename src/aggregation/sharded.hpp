#pragma once
// Hierarchical (sharded) robust aggregation.
//
// At production client counts a single robust rule over the whole cohort
// is the O(m^2 * d) bottleneck, so the cohort is split into `shards`
// contiguous row slices: each shard aggregator runs the scenario's rule
// over its slice, and a root rule aggregates the shard outputs.  The
// Byzantine budget is split with the shared helpers in budget.hpp — every
// shard must budget for the full t (the adversary may concentrate its
// clients into one slice, clamped to the slice's own resilience bound),
// and the root budgets one corrupted output per fault, clamped likewise.
//
// Determinism contract: shards == 1 dispatches the shard rule over the
// caller's workspace with the caller's context untouched — bitwise
// identical to not using this layer at all.  When both rules are MEAN the
// output is computed as the global mean in row order, so the artifact is
// bitwise identical across shard counts (the sharded-determinism test
// pins shards in {1, 4, 16}); a mean of per-shard means would drift in
// the last float bits.

#include <cstddef>

#include "aggregation/rule.hpp"
#include "linalg/gradient_batch.hpp"

namespace bcl {

/// Aggregates `batch` through `shards` shard aggregators running
/// `shard_rule`, then `root_rule` over the shard outputs.  `workspace`
/// must have been built over `batch`; it is only consumed on the
/// shards == 1 path (per-shard workspaces are built over the slices).
/// The shard count is clamped to the row count; ctx.t is split per the
/// budget.hpp helpers, and ctx.pool / ctx.metrics reach every shard and
/// root aggregation.
Vector aggregate_sharded(const GradientBatch& batch,
                         AggregationWorkspace& workspace,
                         const AggregationRule& shard_rule,
                         const AggregationRule& root_rule, std::size_t shards,
                         const AggregationContext& ctx);

}  // namespace bcl
