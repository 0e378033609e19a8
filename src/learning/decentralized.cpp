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
  agreement.round_function = std::make_shared<RuleRound>(config_.rule);
  agreement.pool = config_.pool;
  agreement.net = config_.net;
  agreement.metrics = config_.metrics;

  // Liveness schedule (faults= dimension).  Membership is frozen per
  // learning round: every agreement sub-round of round r runs against the
  // plan's round-r live set (AgreementConfig::fault_round), and the plan
  // advances between learning rounds.  An empty plan keeps agreement.faults
  // null and every path below bitwise-identical to the pre-fault trainer.
  const FaultPlan plan(config_.faults, n, config_.rounds, config_.seed);
  const bool faulty = config_.faults.any();
  if (faulty) agreement.faults = &plan;
  auto live = [&](std::size_t i, std::size_t round) {
    return !faulty || plan.alive(i, round);
  };

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
  // write their rows in place, and the spread metric runs the Gram kernel
  // over the honest prefix without materializing per-client Vectors.
  const std::size_t dim = setup.dim();
  GradientBatch gradients(n, dim);
  std::vector<double> losses(n, 0.0);

  // The remaining per-round scratch, hoisted out of the loop: each buffer
  // is refilled in place every round, so the O(n * d) allocations behind
  // them happen once instead of config_.rounds times (assign/clear reuse
  // the capacity left by earlier rounds).  inputs' Byzantine tail is
  // written only here — the agreement engine substitutes the adversary's
  // values without reading it — so the zeros survive across rounds.
  std::vector<std::size_t> input_wire;
  VectorList honest_gradients(honest_count);
  VectorList live_view;
  std::vector<std::optional<Vector>> byz_values(n);
  VectorList inputs(n, zeros(dim));
  std::vector<double> accuracies(honest_count, 0.0);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    Stopwatch round_watch;
    BCL_TRACE_SPAN("round");
    if (faulty) agreement.fault_round = round;
    // Phase 1: local stochastic gradients at each honest client's own
    // parameters (parallel; disjoint rows, one scratch model per lane).
    // Down clients compute nothing this round: their row is zeroed (the
    // engine suppresses their broadcast anyway) and their loss excluded
    // below.
    {
      BCL_TRACE_SPAN("grad.compute");
      for_each_in_lanes(config_.pool, n, [&](std::size_t lane, std::size_t i) {
        if (!live(i, round)) {
          losses[i] = 0.0;
          std::fill(gradients.row(i), gradients.row(i) + dim, 0.0);
          return;
        }
        const Vector& at = i < honest_count ? params_[i] : params_[0];
        losses[i] = setup.gradient(lane, i, at, gradients.row(i));
      });
    }

    double honest_loss = 0.0;
    std::size_t live_honest = 0;
    for (std::size_t i = 0; i < honest_count; ++i) {
      if (!live(i, round)) continue;
      honest_loss += losses[i];
      ++live_honest;
    }
    honest_loss = live_honest > 0
                      ? honest_loss / static_cast<double>(live_honest)
                      : 0.0;
    // Pairwise spread of the honest gradients entering agreement: the
    // Gram-trick build over the batch's honest prefix (pool-parallel).
    // Under faults the zeroed down rows would fake spread, so the live
    // honest gradients are compacted first (faults=none keeps the
    // in-place prefix path, bitwise).
    double gradient_diameter = 0.0;
    if (!faulty) {
      gradient_diameter =
          DistanceMatrix(gradients.row(0), honest_count, dim, config_.pool)
              .diameter();
    } else if (live_honest > 0) {
      VectorList live_rows;
      live_rows.reserve(live_honest);
      for (std::size_t i = 0; i < honest_count; ++i) {
        if (live(i, round)) live_rows.push_back(gradients.row_copy(i));
      }
      gradient_diameter =
          DistanceMatrix(GradientBatch::from(live_rows), config_.pool)
              .diameter();
    }

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
        if (!live(i, round)) continue;
        const CompressedGradient encoded = error_feedback.compress(
            *codec, config_.seed, i, round, gradients.row(i), dim);
        encoded.decode_into(gradients.row(i));
        input_wire[i] = encoded.wire_bytes();
      }
    }

    // The attack interface and the agreement protocol speak VectorList, so
    // the honest rows are materialized once per round for both.
    for (std::size_t i = 0; i < honest_count; ++i) {
      honest_gradients[i].assign(gradients.row(i), gradients.row(i) + dim);
    }
    // The omniscient attacker only sees gradients that will actually be
    // broadcast: down clients' zeroed rows are filtered from its view.
    live_view.clear();
    if (faulty) {
      live_view.reserve(live_honest);
      for (std::size_t i = 0; i < honest_count; ++i) {
        if (live(i, round)) live_view.push_back(honest_gradients[i]);
      }
    }
    const VectorList& attack_view = faulty ? live_view : honest_gradients;

    // Phase 2: Byzantine clients fix their corrupted gradients for the
    // whole agreement phase of this learning round (down attackers are
    // silenced by the engine; skip the craft).
    for (auto& value : byz_values) value.reset();
    {
      BCL_TRACE_SPAN("attack.corrupt");
      for (std::size_t i = honest_count; i < n; ++i) {
        if (!live(i, round)) continue;
        byz_values[i] = config_.attack->corrupt(gradients.row_copy(i),
                                                attack_view, round,
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
    for (std::size_t i = 0; i < honest_count; ++i) {
      inputs[i] = honest_gradients[i];
    }
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
      return run_fixed_rounds_agreement(inputs, adversary, subrounds,
                                        agreement);
    }();

    // Phase 4: every live honest client applies its own agreed vector; a
    // down client's parameters freeze until it rejoins (it then resumes
    // from its frozen model, one epoch behind its peers).
    const double lr = config_.schedule.rate(round);
    {
      BCL_TRACE_SPAN("sgd.apply");
      for (std::size_t i = 0; i < honest_count; ++i) {
        if (!live(i, round)) continue;
        ml::sgd_step(params_[i], agreed.outputs[i], lr);
      }
    }

    // Phase 5: evaluate every live honest local model.
    accuracies.assign(honest_count, 0.0);
    {
      BCL_TRACE_SPAN("evaluate");
      for_each_in_lanes(
          config_.pool, honest_count, [&](std::size_t lane, std::size_t i) {
            if (!live(i, round)) return;
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
      if (!live(i, round)) continue;
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
    metrics.live_clients = faulty
                               ? static_cast<double>(plan.live_count(round))
                               : static_cast<double>(n);
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
