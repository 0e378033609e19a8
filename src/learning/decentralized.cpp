#include "learning/decentralized.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "agreement/protocol.hpp"
#include "compression/codec.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "network/adversary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

std::size_t agreement_subrounds(std::size_t iteration) {
  std::size_t rounds = 0;
  // ceil(log2(iteration + 2)): 1 sub-round at iteration 0, growing
  // logarithmically with the learning round as in El-Mhamdi et al.
  std::size_t value = iteration + 2;
  std::size_t power = 1;
  while (power < value) {
    power *= 2;
    ++rounds;
  }
  return std::max<std::size_t>(1, rounds);
}

DecentralizedTrainer::DecentralizedTrainer(TrainingConfig config,
                                           ModelFactory factory,
                                           const ml::Dataset* train,
                                           const ml::Dataset* test)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      train_(train),
      test_(test) {
  validate_config(config_);
  if (train_ == nullptr || test_ == nullptr) {
    throw std::invalid_argument("DecentralizedTrainer: null dataset");
  }
  if (config_.stale.enabled()) {
    throw std::invalid_argument(
        "DecentralizedTrainer: stale= bounded staleness applies to the "
        "centralized trainer only (there is no server version to be stale "
        "against); use topology=centralized or stale=none");
  }
}

TrainingResult DecentralizedTrainer::run() {
  const std::size_t n = config_.num_clients;
  const std::size_t f = config_.num_byzantine;
  const std::size_t honest_count = n - f;
  TrainerSetup setup(config_, factory_, *train_);

  // Every client starts from the same initial model (created once at the
  // beginning, as in the paper); divergence comes from the data and faults.
  params_.assign(honest_count, setup.initial_parameters());

  AgreementConfig agreement;
  agreement.n = n;
  agreement.t = config_.resolved_t();
  agreement.rule = config_.rule;
  agreement.pool = config_.pool;
  agreement.net = config_.net;
  agreement.metrics = config_.metrics;

  // Liveness schedule (faults= dimension).  Membership is frozen per
  // learning round: every agreement sub-round of round r runs against the
  // plan's round-r live set (AgreementConfig::fault_round), and the plan
  // advances between learning rounds.  A fault-free plan keeps everyone up
  // (alive() true, slowdown 1, live_count n), so every fault branch below
  // and in the engine is an exact no-op.
  const FaultPlan plan(config_.faults, n, config_.rounds, config_.seed);
  agreement.faults = &plan;

  std::vector<std::size_t> byzantine_ids;
  for (std::size_t i = n - f; i < n; ++i) byzantine_ids.push_back(i);

  TrainingResult result;
  result.history.reserve(config_.rounds);

  // Gradient compression (the `comp=` dimension): honest gradients are
  // EF-compressed before they enter agreement, and every agreement
  // sub-round broadcast goes through the codec too (AgreementNode), so the
  // whole decentralized exchange is priced at compressed wire sizes.  A
  // null/identity codec keeps the pre-codec path bitwise.
  const Codec* codec = setup.codec();
  ErrorFeedback error_feedback(honest_count);

  // One contiguous gradient batch per round (honest rows first); clients
  // write their rows in place, and row i is node i's agreement input as
  // is (the engine never reads the Byzantine rows).  The live honest rows
  // are lent to the spread metric and the attack through one row table.
  const std::size_t dim = setup.dim();
  GradientBatch gradients(n, dim);
  std::vector<double> losses(n, 0.0);

  // The remaining per-round scratch, hoisted out of the loop and refilled
  // in place every round.
  std::vector<std::size_t> input_wire;
  std::vector<const double*> live_rows;
  std::vector<std::optional<Vector>> byz_values(n);
  std::vector<double> accuracies(honest_count, 0.0);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    Stopwatch round_watch;
    BCL_TRACE_SPAN("round");
    agreement.fault_round = round;
    // Phase 1: local stochastic gradients at each honest client's own
    // parameters (parallel; disjoint rows, one scratch model per lane).
    // Down clients compute nothing this round: their row is zeroed (the
    // engine suppresses their broadcast anyway) and their loss excluded
    // below.
    {
      BCL_TRACE_SPAN("grad.compute");
      for_each_in_lanes(config_.pool, n, [&](std::size_t lane, std::size_t i) {
        if (!plan.alive(i, round)) {
          losses[i] = 0.0;
          std::fill(gradients.row(i), gradients.row(i) + dim, 0.0);
          return;
        }
        const Vector& at = i < honest_count ? params_[i] : params_[0];
        losses[i] = setup.gradient(lane, i, at, gradients.row(i));
      });
    }

    // The live honest gradients, in id order: down clients' zeroed rows
    // would fake spread and are never broadcast, so neither the spread
    // metric nor the attacker sees them.  The table holds row pointers,
    // so the view built here before EF reads the lossy decodes after it.
    double honest_loss = 0.0;
    live_rows.clear();
    for (std::size_t i = 0; i < honest_count; ++i) {
      if (!plan.alive(i, round)) continue;
      honest_loss += losses[i];
      live_rows.push_back(gradients.row(i));
    }
    const std::size_t live_honest = live_rows.size();
    honest_loss = live_honest > 0
                      ? honest_loss / static_cast<double>(live_honest)
                      : 0.0;
    const GradientBatch live_honest_rows =
        GradientBatch::view(live_rows.data(), live_honest, dim);
    // Pairwise spread of the honest gradients entering agreement: the
    // Gram-trick build over the live rows (pool-parallel).
    const double gradient_diameter =
        DistanceMatrix(live_honest_rows, config_.pool).diameter();

    // EF-compress the honest gradients in place: agreement (and the
    // attack, which observes wire traffic) runs on the lossy decodes.
    // The residuals carry the dropped mass into the next learning round,
    // and the recorded wire sizes price the sub-round-0 broadcasts —
    // agreement ships these inputs untransformed (a re-encode under a
    // fresh stochastic stream would re-sparsify onto a different support,
    // outside error feedback's view) and only re-encodes the mixed
    // vectors of later sub-rounds.
    input_wire.clear();
    if (codec != nullptr) {
      BCL_TRACE_SPAN("codec.encode");
      input_wire.assign(n, HonestProcess::kDenseWire);
      for (std::size_t i = 0; i < honest_count; ++i) {
        // A down client keeps its EF residual untouched: it carries the
        // dropped mass forward to the round it recovers in.
        if (!plan.alive(i, round)) continue;
        const CompressedGradient encoded = error_feedback.compress(
            *codec, config_.seed, i, round, gradients.row(i), dim);
        encoded.decode_into(gradients.row(i));
        input_wire[i] = encoded.wire_bytes();
      }
    }

    // Phase 2: Byzantine clients fix their corrupted gradients for the
    // whole agreement phase of this learning round (down attackers are
    // silenced by the engine; skip the craft).  The omniscient attacker
    // sees the live honest gradients as broadcast.
    for (auto& value : byz_values) value.reset();
    {
      BCL_TRACE_SPAN("attack.corrupt");
      for (std::size_t i = honest_count; i < n; ++i) {
        if (!plan.alive(i, round)) continue;
        byz_values[i] = config_.attack->corrupt(gradients.row_copy(i),
                                                live_honest_rows, round,
                                                setup.attack_rng());
      }
    }
    PerNodeFixedAdversary fixed_adversary(byzantine_ids, byz_values);
    DelayingAdversary delaying_adversary(fixed_adversary,
                                         config_.honest_delay_probability,
                                         config_.seed ^ (round * 0x9E37u));
    Adversary& adversary = config_.honest_delay_probability > 0.0
                               ? static_cast<Adversary&>(delaying_adversary)
                               : static_cast<Adversary&>(fixed_adversary);

    // Phase 3: approximate agreement on the gradients for the logarithmic
    // sub-round schedule.
    const std::size_t subrounds = config_.fixed_subrounds > 0
                                      ? config_.fixed_subrounds
                                      : agreement_subrounds(round);
    // Each learning round runs a fresh agreement instance whose sub-rounds
    // restart at 0, so the network seed is mixed per learning round to
    // decorrelate the sampled latencies across rounds.
    agreement.net.seed =
        config_.net.seed ^ ((round + 1) * 0x9E3779B97F4A7C15ull);
    agreement.codec = codec;
    agreement.codec_seed =
        config_.seed ^ ((round + 1) * 0xC2B2AE3D27D4EB4Full);
    agreement.input_wire_bytes = input_wire;
    const AgreementResult agreed = [&] {
      BCL_TRACE_SPAN("agreement");
      return run_fixed_rounds_agreement(gradients, adversary, subrounds,
                                        agreement);
    }();

    // Phase 4: every live honest client applies its own agreed vector; a
    // down client's parameters freeze until it rejoins (it then resumes
    // from its frozen model, one epoch behind its peers).
    const double lr = config_.schedule.rate(round);
    {
      BCL_TRACE_SPAN("sgd.apply");
      for (std::size_t i = 0; i < honest_count; ++i) {
        if (!plan.alive(i, round)) continue;
        ml::sgd_step(params_[i], agreed.outputs[i], lr);
      }
    }

    // Phase 5: evaluate every live honest local model.
    accuracies.assign(honest_count, 0.0);
    {
      BCL_TRACE_SPAN("evaluate");
      for_each_in_lanes(
          config_.pool, honest_count, [&](std::size_t lane, std::size_t i) {
            if (!plan.alive(i, round)) return;
            accuracies[i] = setup.evaluate(lane, params_[i], *test_,
                                           config_.eval_max_examples);
          });
    }

    RoundMetrics metrics;
    metrics.round = round;
    metrics.learning_rate = lr;
    metrics.mean_honest_loss = honest_loss;
    double sum = 0.0;
    double lo = 1.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < honest_count; ++i) {
      if (!plan.alive(i, round)) continue;
      const double a = accuracies[i];
      sum += a;
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    metrics.accuracy =
        live_honest > 0 ? sum / static_cast<double>(live_honest) : 0.0;
    metrics.accuracy_min = live_honest > 0 ? lo : 0.0;
    metrics.accuracy_max = live_honest > 0 ? hi : 0.0;
    metrics.disagreement = agreed.trace.honest_diameter.back();
    metrics.gradient_diameter = gradient_diameter;
    metrics.seconds = round_watch.seconds();
    metrics.sim_seconds = agreed.simulated_seconds;
    metrics.bytes_delivered =
        static_cast<double>(agreed.network.bytes_delivered);
    metrics.bytes_dense =
        static_cast<double>(agreed.network.bytes_dense_delivered);
    metrics.live_clients = static_cast<double>(plan.live_count(round));
    metrics.degraded = agreed.network.rounds_degraded > 0 ? 1.0 : 0.0;
    if (config_.metrics != nullptr) {
      // Absorb the per-instance counter structs (dropped on AgreementResult
      // until now) under the unified registry names.
      publish_network_stats(agreed.network, *config_.metrics);
      config_.metrics->counter("agreement.gram_builds")
          .add(agreed.sharing.gram_builds);
      config_.metrics->counter("agreement.shared_hits")
          .add(agreed.sharing.shared_hits);
      config_.metrics->counter("agreement.subrounds").add(agreed.rounds);
    }
    publish_round_histograms(config_.metrics, metrics);
    result.history.push_back(metrics);
    if (config_.on_round) config_.on_round(result.history.back());
  }
  result.final_accuracy =
      result.history.empty() ? 0.0 : result.history.back().accuracy;
  return result;
}

}  // namespace bcl
