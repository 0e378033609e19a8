#pragma once
// Differential oracle for the agreement protocol's inbox path: the naive
// step, one private call per node over an owned copy of its inbox.
// Nothing in src/ calls it.
//
// Production agreement (agreement/protocol.cpp) hands each rule a borrowed
// view of the engine's payload spans and shares one build across nodes
// whose sub-round inboxes coincide.  PrivateCopyRule undoes both.  Its
// reads_current() is true, so the protocol gives every node its own call;
// each call copies the inbox into an owned batch and runs the inner rule
// on a private workspace over that copy, ignoring the shared distance
// matrix it is lent.  Agreement run with PrivateCopyRule(rule) must
// therefore match agreement run with `rule` bit for bit
// (subround_sharing_test), and bench_decentralized_scale times it as the
// per-node copy reference of its speedup ratio.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "aggregation/rule.hpp"

namespace bcl::test {

class PrivateCopyRule final : public AggregationRule {
 public:
  explicit PrivateCopyRule(AggregationRulePtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bool reads_current() const override { return true; }

 protected:
  Vector do_aggregate(const GradientBatch& batch,
                      AggregationWorkspace& /*shared*/,
                      const AggregationContext& ctx) const override {
    GradientBatch owned(batch.rows(), batch.dim());
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      std::copy(batch.row(i), batch.row(i) + batch.dim(), owned.row(i));
    }
    AggregationWorkspace workspace(owned, ctx.pool);
    return inner_->aggregate(owned, workspace, ctx);
  }

 private:
  AggregationRulePtr inner_;
};

/// PrivateCopyRule over `inner`, as the shared pointer AgreementConfig and
/// TrainingConfig take.
inline AggregationRulePtr private_copy(AggregationRulePtr inner) {
  return std::make_shared<PrivateCopyRule>(std::move(inner));
}

}  // namespace bcl::test
