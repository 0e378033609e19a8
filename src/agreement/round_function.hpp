#pragma once
// Round functions: how an honest node maps its inbox to its next vector.
//
// Most protocols apply a stateless aggregation rule to the received
// multiset.  MD-GEOM additionally depends on tie-breaking among equally
// minimal-diameter subsets (Definition 3.4 notes the set is not unique);
// StickyMinDiameterGeoRound exposes the natural "prefer a subset close to
// my current vector" choice, which is exactly the freedom Lemma 4.2's
// adversary needs to stall convergence.
//
// A round function has one entry point, step(batch, workspace, current,
// ctx), over the contiguous inbox batch and the workspace built over it;
// every implementation runs validate_inbox (aggregation/rule.hpp) before
// reading the inbox.

#include <memory>
#include <string>

#include "aggregation/rule.hpp"
#include "geometry/weiszfeld.hpp"

namespace bcl {

/// Maps (inbox, own current vector) to the node's next vector.
class RoundFunction {
 public:
  virtual ~RoundFunction() = default;
  virtual std::string name() const = 0;

  /// `batch` is the round's inbox (>= n - t vectors) and `workspace` was
  /// built over it, so every distance consumer in the round shares one
  /// pairwise matrix; `current` is the node's own vector at the start of
  /// the round.  Throws std::invalid_argument on an invalid inbox.
  virtual Vector step(const GradientBatch& batch,
                      AggregationWorkspace& workspace, const Vector& current,
                      const AggregationContext& ctx) const = 0;

  /// True when step() ignores `current` (the node's own vector), i.e. the
  /// output is a pure function of the inbox.  The agreement protocol then
  /// memoizes the *entire* step result across nodes whose sub-round
  /// inboxes coincide; current-dependent round functions (the sticky
  /// MD-GEOM tie-break) share only the distance build.  Conservative
  /// default: false.
  virtual bool current_independent() const { return false; }
};

using RoundFunctionPtr = std::shared_ptr<const RoundFunction>;

/// Adapter: apply a stateless aggregation rule, ignoring `current`.
class RuleRound final : public RoundFunction {
 public:
  explicit RuleRound(AggregationRulePtr rule);
  std::string name() const override;
  Vector step(const GradientBatch& batch, AggregationWorkspace& workspace,
              const Vector& current,
              const AggregationContext& ctx) const override;
  /// A stateless rule never reads `current`: the whole step output can be
  /// shared across nodes with identical inboxes.
  bool current_independent() const override { return true; }

 private:
  AggregationRulePtr rule_;
};

/// MD-GEOM with sticky tie-breaking: among all minimum-diameter
/// (n - t)-subsets, pick the one whose geometric median is closest to the
/// node's current vector.  Deterministic, and a natural implementation
/// choice — which is precisely why Lemma 4.2's non-convergence is a real
/// hazard rather than an adversarial curiosity.
class StickyMinDiameterGeoRound final : public RoundFunction {
 public:
  explicit StickyMinDiameterGeoRound(WeiszfeldOptions options = {})
      : options_(options) {}
  std::string name() const override { return "MD-GEOM-STICKY"; }
  Vector step(const GradientBatch& batch, AggregationWorkspace& workspace,
              const Vector& current,
              const AggregationContext& ctx) const override;

 private:
  WeiszfeldOptions options_;
};

/// Convenience constructors.
RoundFunctionPtr make_round_function(const std::string& rule_name);

}  // namespace bcl
