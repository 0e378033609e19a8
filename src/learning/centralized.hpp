#pragma once
// Centralized collaborative learning (Section 2.1): a trusted server holds
// the global model; every round each participating client computes a
// stochastic gradient at the global parameters, Byzantine clients corrupt
// theirs, the server aggregates the submissions with the configured rule
// and applies one SGD step.  Reproduces the Figure 1 / Figure 2
// experiments.

#include "learning/client.hpp"
#include "learning/config.hpp"

namespace bcl {

/// One streaming round loop serves every configuration.  Per-client state
/// is O(1) (a shard index list and an RNG stream; gradients are computed on
/// per-lane scratch models), and a round's accepted gradients stream
/// through one O(members * d) batch aggregated by the sharded hierarchy.
/// A round's membership comes from three values:
///   - the cohort sample (cohort=), or every client id;
///   - the FaultPlan's liveness (faults=): down clients compute nothing;
///   - a table of in-flight gradients: a straggler's upload lands
///     ceil(slowdown) - 1 rounds late, a Byzantine one at the staleness its
///     attack picks (stale=), and arrivals more than tau versions stale are
///     rejected.
/// Accepted stale rows are down-weighted by decay^staleness; the server
/// steps only on a quorum of rows and otherwise records a degraded round.
/// Without faults= and stale= every member lands every round (a barrier
/// round) and the Byzantine budget counts the nominal membership;
/// otherwise it counts the accepted rows.
class CentralizedTrainer {
 public:
  /// `train` and `test` must outlive the trainer.  The last f client ids
  /// are Byzantine.
  CentralizedTrainer(TrainingConfig config, ModelFactory factory,
                     const ml::Dataset* train, const ml::Dataset* test);

  /// Runs the full training loop; returns the per-round accuracy history of
  /// the global model.
  TrainingResult run();

  /// The global parameter vector (valid after run()).
  const Vector& parameters() const { return global_params_; }

 private:
  TrainingConfig config_;
  ModelFactory factory_;
  const ml::Dataset* train_;
  const ml::Dataset* test_;
  Vector global_params_;
};

}  // namespace bcl
