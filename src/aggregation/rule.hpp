#pragma once
// Gradient aggregation rule interface.
//
// An aggregation rule maps the multiset of vectors a node (or the central
// server) received in one round to a single output vector.  In the
// centralized model the server applies a rule once per learning round; in
// the decentralized model every node applies a rule once per agreement
// sub-round (Section 2.1 of the paper).
//
// Every rule has one entry point, aggregate(batch, workspace, ctx), over
// the contiguous GradientBatch layout the trainers and the agreement
// protocol feed the hot path, plus the AggregationWorkspace built over that
// batch so distance-based rules share one pairwise DistanceMatrix instead
// of each recomputing it.  The method is non-virtual: it checks once that
// the workspace was built over the batch and that the inbox is valid
// (validate_inbox), then calls the rule's protected do_aggregate(), so no
// rule repeats either check.
//
// aggregate(received, ctx) is the VectorList convenience for callers at the
// edge (examples, table benches, tests): it packs a batch, builds a
// workspace with ctx.pool and calls the batch form.

#include <cstddef>
#include <memory>
#include <string>

#include "linalg/vector_ops.hpp"
#include "linalg/workspace.hpp"

namespace bcl {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}

/// Static system parameters every rule needs: the nominal number of clients
/// n and the Byzantine tolerance t (maximum faults designed for; the actual
/// fault count f <= t is unknown to the rule).
struct AggregationContext {
  std::size_t n = 0;
  std::size_t t = 0;
  /// Optional worker pool for subset-parallel rules; nullptr runs serially.
  ThreadPool* pool = nullptr;
  /// Optional per-scenario metrics registry; rules with data-dependent
  /// control flow (sketched screens) publish counters here (for example
  /// "sketch.certified" / "sketch.fallbacks").  nullptr publishes nothing.
  obs::MetricsRegistry* metrics = nullptr;
  /// The calling node's own vector at the start of the round.  Each
  /// agreement node points this at its current vector; it is null
  /// everywhere else.  Only rules whose reads_current() is true read it.
  const Vector* current = nullptr;

  /// Number of vectors every rule trusts to exist: n - t.
  std::size_t keep() const { return n - t; }
};

/// The input check shared by every rule.  Throws
/// std::invalid_argument unless `workspace` was built over `batch` and the
/// inbox fits the context: n > 0, t < n, n - t <= rows <= n, a positive
/// dimension, and only finite values (a Byzantine NaN/Inf would silently
/// poison every arithmetic rule, so it is rejected at the boundary).
void validate_inbox(const GradientBatch& batch,
                    const AggregationWorkspace& workspace,
                    const AggregationContext& ctx);

/// Interface for one-shot aggregation.  Implementations are stateless and
/// thread-compatible: a single instance may be used concurrently from many
/// nodes (each node passes its own workspace).
class AggregationRule {
 public:
  virtual ~AggregationRule() = default;

  /// Stable identifier used in tables and experiment configs (for example
  /// "BOX-GEOM").
  virtual std::string name() const = 0;

  /// Aggregates `batch`; `workspace` must have been built over it.  Runs
  /// validate_inbox (which throws std::invalid_argument) and then the rule.
  Vector aggregate(const GradientBatch& batch, AggregationWorkspace& workspace,
                   const AggregationContext& ctx) const;

  /// Edge convenience: packs `received` into a batch (rows must share one
  /// dimension), builds a workspace with ctx.pool attached and aggregates.
  Vector aggregate(const VectorList& received,
                   const AggregationContext& ctx) const;

  /// True when the output depends on ctx.current as well as the inbox.
  /// The agreement protocol shares the whole output across nodes whose
  /// sub-round inboxes coincide only when this is false; otherwise the
  /// nodes share the distance build and each runs its own call.
  virtual bool reads_current() const { return false; }

 protected:
  /// The rule itself, called only on a validated inbox with a workspace
  /// built over it.
  virtual Vector do_aggregate(const GradientBatch& batch,
                              AggregationWorkspace& workspace,
                              const AggregationContext& ctx) const = 0;
};

using AggregationRulePtr = std::shared_ptr<const AggregationRule>;

}  // namespace bcl
