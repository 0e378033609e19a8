#pragma once
// Decentralized collaborative learning (Section 2.1): no server.  Every
// client keeps its own model; in learning iteration T each honest client
// computes a stochastic gradient at its own parameters, the clients run the
// approximate-agreement subroutine on the gradients for ceil(log2(T + 2))
// synchronous sub-rounds (the El-Mhamdi et al. schedule the paper adopts),
// and each client applies its own agreed vector with SGD.  Byzantine
// clients submit attacked gradients and repeat them through the sub-rounds.
// Reproduces the Figure 3 experiments.

#include "learning/client.hpp"
#include "learning/config.hpp"

namespace bcl {

class DecentralizedTrainer {
 public:
  /// Every honest node applies the aggregation rule of `config` to its
  /// inbox in every agreement sub-round.
  DecentralizedTrainer(TrainingConfig config, ModelFactory factory,
                       const ml::Dataset* train, const ml::Dataset* test);

  TrainingResult run();

  /// Final parameters of each honest client (valid after run()).
  const VectorList& honest_parameters() const { return params_; }

 private:
  TrainingConfig config_;
  ModelFactory factory_;
  const ml::Dataset* train_;
  const ml::Dataset* test_;
  VectorList params_;
};

/// The paper's sub-round schedule: max(1, ceil(log2(iteration + 2))).
std::size_t agreement_subrounds(std::size_t iteration);

}  // namespace bcl
