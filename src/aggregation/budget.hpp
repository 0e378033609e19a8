#pragma once
// Shared Byzantine-budget arithmetic.
//
// Several layers clamp the designed fault budget t to what a thinner
// inbox can actually tolerate: the centralized trainer's elastic rounds (a
// quorum of `rows` submissions may be far below n) and cohort rounds (only
// a sampled subset uploads), and the sharded aggregator (each shard sees a
// slice).
// They must all use the same rule — t bounded by the t < rows/3
// resilience condition, i.e. at most (rows - 1) / 3 faults among `rows`
// inputs — so the clamp lives here instead of being re-derived per call
// site.

#include <algorithm>
#include <cstddef>

namespace bcl {

/// The largest Byzantine budget an aggregation over `rows` inputs can
/// honour: min(t, (rows - 1) / 3), and 0 when there are fewer than two
/// rows (a singleton inbox tolerates nothing).
inline std::size_t clamp_byzantine_budget(std::size_t t, std::size_t rows) {
  return std::min(t, rows > 1 ? (rows - 1) / 3 : std::size_t{0});
}

/// Per-shard slice of a global budget t when `rows` inputs are split into
/// `shards` contiguous slices: the adversary may concentrate every fault
/// into one slice, so each shard must budget for all t (clamped to its own
/// slice size by clamp_byzantine_budget at the call site).  The *root*
/// aggregation over the shard outputs budgets for the number of shard
/// outputs the adversary could corrupt outright — one per fault, since a
/// single Byzantine member can already deny its shard's resilience
/// condition in the worst split — clamped to what `shards` outputs
/// tolerate.
inline std::size_t root_byzantine_budget(std::size_t t, std::size_t shards) {
  return clamp_byzantine_budget(std::min(t, shards), shards);
}

}  // namespace bcl
