#pragma once
// Shared configuration and metrics of the collaborative-learning trainers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "aggregation/rule.hpp"
#include "attacks/attack.hpp"
#include "compression/codec.hpp"
#include "faults/fault_plan.hpp"
#include "faults/staleness.hpp"
#include "learning/cohort.hpp"
#include "ml/optimizer.hpp"
#include "ml/partition.hpp"
#include "network/delay_model.hpp"

namespace bcl {

class ThreadPool;
struct RoundMetrics;

struct TrainingConfig {
  /// Total clients n (the paper uses 10) and true Byzantine count f.
  /// Byzantine ids are the last f ids, {n-f, ..., n-1}.
  std::size_t num_clients = 10;
  std::size_t num_byzantine = 1;
  /// Designed tolerance t (>= num_byzantine); defaults to num_byzantine.
  std::size_t tolerance = 0;

  std::size_t rounds = 50;
  std::size_t batch_size = 32;

  AggregationRulePtr rule;
  GradientAttackPtr attack;

  /// eta = 0.01 with global-round decay by default (set in code when the
  /// zero-initialized schedule is detected).
  ml::LearningRateSchedule schedule{0.01, 0.0};

  ml::Heterogeneity heterogeneity = ml::Heterogeneity::Mild;

  /// Decentralized model only: probability that an honest gradient message
  /// is delayed past an agreement sub-round (the "receive up to n
  /// messages" slack; delivery never drops below n - t).  0 = full
  /// synchrony, in which case honest inboxes coincide and agreement is
  /// immediate.
  double honest_delay_probability = 0.0;

  /// Timing model of the communication rounds (the scenario `net=`
  /// dimension).  sync (default) = zero-delay lockstep; an async config
  /// runs the decentralized agreement sub-rounds on the discrete-event
  /// engine (delay model + loss + timeout Delta + bounded adversarial
  /// scheduling) and prices the centralized server round through the same
  /// delay model's star topology.  net.seed is mixed per learning round by
  /// the trainers.
  NetConfig net;

  /// Gradient codec of the communication rounds (the scenario `comp=`
  /// dimension).  null or identity = dense traffic and a code path bitwise
  /// identical to the pre-compression trainers.  Otherwise the centralized
  /// trainer EF-compresses every client upload and the server's broadcast,
  /// and the decentralized trainer EF-compresses the gradients entering
  /// agreement and routes every agreement sub-round broadcast through the
  /// codec.  Wire sizes flow into the byte metrics and, with `net.bw` set,
  /// into sim_seconds.
  CodecPtr codec;

  /// Liveness schedule (the scenario `faults=` dimension).  The default
  /// "none" keeps every client up for the whole run.  Otherwise a
  /// FaultPlan expanded over the run's rounds drives crashes, recoveries,
  /// MMPP churn and stragglers: the centralized trainer's rounds turn
  /// elastic (down clients drop out, the server steps on a quorum), the
  /// decentralized trainer freezes the plan's membership across each
  /// learning round's agreement sub-rounds.
  FaultConfig faults;

  /// Bounded-staleness round policy (the scenario `stale=` dimension),
  /// centralized only: tau > 0 replaces the global round barrier with
  /// server advancement on a quorum of gradients at most tau versions
  /// old (see faults/staleness.hpp).  "none" keeps the round barrier.
  StaleConfig stale;

  /// Cohort subsampling + sharded aggregation (the scenario `cohort=`
  /// dimension), centralized only: a fraction > 0 makes each round sample
  /// its uploaders from cohort_stream, so round memory is O(cohort * d);
  /// `shards` > 1 splits the robust aggregation hierarchically (see
  /// aggregation/sharded.hpp).  Fraction 1.0 with one shard is bitwise
  /// identical to disabled (test-enforced).  Mutually exclusive with
  /// faults/stale.
  CohortConfig cohort;

  /// Sketched shard aggregation (the scenario `sketch=` dimension),
  /// cohort= runs only.  "auto" (default) swaps the cohort round's shard
  /// and root rules for their SKETCH-* counterparts (see
  /// aggregation/sketched.hpp) once the round inbox reaches
  /// kSketchAutoThreshold rows — the regime where the O(m^2 d) distance
  /// build dominates and the JL sketch's O(m^2 k) screen wins; smaller
  /// inboxes keep the exact rules, bitwise the pre-sketch path.  "on"
  /// forces sketched rules at every size, "off" never sketches (the
  /// escape hatch).  Rules without a sketched counterpart (anything
  /// outside KRUM / MULTIKRUM-q / MD-MEAN) ignore the knob.
  std::string sketch = "auto";

  std::uint64_t seed = 7;
  ThreadPool* pool = nullptr;

  /// Optional per-scenario metrics registry (src/obs/metrics.hpp).  When
  /// set, the trainers publish round histograms (round.wall_seconds /
  /// round.sim_seconds / round.bytes), absorb the per-run counter structs
  /// (NetworkStats, SharingStats, sketch certification) under unified
  /// dotted names, and the event engine records a per-message delay
  /// histogram.  nullptr (default) publishes nothing and keeps every hot
  /// path branch-free.
  obs::MetricsRegistry* metrics = nullptr;

  /// Inbox size at which sketch="auto" switches the cohort shard rules to
  /// their sketched counterparts.
  static constexpr std::size_t kSketchAutoThreshold = 10000;

  /// Cap on test examples per evaluation (0 = all).
  std::size_t eval_max_examples = 0;

  /// Decentralized model only: fixed agreement sub-round budget per
  /// learning round.  0 (default) = the paper's schedule of
  /// ceil(log2(T + 2)) sub-rounds in learning iteration T
  /// (agreement_subrounds); k > 0 runs exactly k sub-rounds every round
  /// (the sub-round ablation scenarios).
  std::size_t fixed_subrounds = 0;

  /// Invoked by both trainers right after each round's metrics are
  /// recorded (streaming consumers: scenario emitters, live progress).
  /// The reference is only valid during the call.  May be empty.
  std::function<void(const RoundMetrics&)> on_round;

  /// Resolved tolerance: max(tolerance, num_byzantine).
  std::size_t resolved_t() const {
    return tolerance > num_byzantine ? tolerance : num_byzantine;
  }
};

/// Per-round record shared by both trainers.  In the decentralized model
/// `accuracy` is the mean over honest clients and `accuracy_min`/`_max` the
/// spread; in the centralized model all three coincide (global model).
struct RoundMetrics {
  std::size_t round = 0;
  double accuracy = 0.0;
  double accuracy_min = 0.0;
  double accuracy_max = 0.0;
  double mean_honest_loss = 0.0;
  double learning_rate = 0.0;
  /// Diameter of honest gradient/output disagreement (0 for centralized).
  double disagreement = 0.0;
  /// Diameter of the honest gradient set before aggregation/agreement,
  /// read off the round's shared distance matrix (a direct measure of the
  /// heterogeneity the robust rules must absorb).
  double gradient_diameter = 0.0;
  /// Wall time of this round (gradients + attack + aggregation/agreement +
  /// evaluation), seconds.
  double seconds = 0.0;
  /// Simulated network time of this round under the configured NetConfig:
  /// total event-engine time of the agreement sub-rounds (decentralized)
  /// or the star-topology upload-quorum + broadcast latency (centralized).
  /// 0 under the sync model.
  double sim_seconds = 0.0;
  /// Bytes delivered over real links this round (uploads + broadcasts for
  /// the centralized star, event-engine deliveries for the decentralized
  /// sub-rounds), and what the same messages would have cost uncompressed.
  /// bytes_dense / bytes_delivered is the round's compression ratio (1
  /// under the identity codec).
  double bytes_delivered = 0.0;
  double bytes_dense = 0.0;
  /// Membership and staleness accounting (faults= / stale= dimensions;
  /// doubles for uniform emitter formatting).  live_clients is the round's
  /// live membership (n without faults); stale_accepted / stale_rejected
  /// count gradient arrivals within / beyond the tau staleness bound;
  /// degraded is 1 when the round ran below the configured quorum (thin
  /// membership) or the server could not advance at all.
  double live_clients = 0.0;
  double stale_accepted = 0.0;
  double stale_rejected = 0.0;
  double degraded = 0.0;
  /// Cohort accounting (cohort= dimension; doubles for uniform emitter
  /// formatting).  cohort is the number of clients that uploaded this
  /// round (n when subsampling is off), shards the shard-aggregator count
  /// applied to the round's inbox (1 = flat aggregation).
  double cohort = 0.0;
  double shards = 1.0;
};

struct TrainingResult {
  std::vector<RoundMetrics> history;
  double final_accuracy = 0.0;

  /// Highest accuracy reached over the run (figures quote this).
  double best_accuracy() const;

  /// Total simulated network time of the run (sum of the rounds'
  /// sim_seconds; 0 under the sync model).  The artifact emitters quote
  /// this as the scenario-level sim_seconds.
  double sim_seconds_total() const;

  /// Total bytes delivered over the run and their dense-equivalent cost
  /// (sums of the rounds' bytes_delivered / bytes_dense).
  double bytes_total() const;
  double bytes_dense_total() const;

  /// Run-level compression ratio: dense-equivalent bytes over delivered
  /// bytes (1 when nothing was delivered or nothing was compressed).
  double compression_ratio() const;

  /// Membership/staleness totals over the run (sums of the per-round
  /// fields; all zero without faults= / stale=).
  double rounds_degraded_total() const;
  double stale_accepted_total() const;
  double stale_rejected_total() const;
};

/// Validates a config and throws std::invalid_argument with a specific
/// message on any inconsistency (missing rule/attack, f >= n/3 etc.).
void validate_config(const TrainingConfig& config);

}  // namespace bcl
