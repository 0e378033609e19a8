#include "learning/centralized.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "aggregation/budget.hpp"
#include "aggregation/registry.hpp"
#include "aggregation/sharded.hpp"
#include "compression/codec.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/sparse_rows.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace bcl {

namespace {

/// SKETCH-* counterpart of a rule, or nullptr when the registry has none
/// (the sketched screen only exists for the Krum family and MD-MEAN).
AggregationRulePtr sketched_counterpart(const AggregationRulePtr& rule) {
  if (rule == nullptr) return nullptr;
  const std::string name = rule->name();
  if (name == "KRUM" || name == "MD-MEAN" ||
      name.rfind("MULTIKRUM-", 0) == 0) {
    return make_rule("SKETCH-" + name);
  }
  return nullptr;
}

}  // namespace

CentralizedTrainer::CentralizedTrainer(TrainingConfig config,
                                       ModelFactory factory,
                                       const ml::Dataset* train,
                                       const ml::Dataset* test)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      train_(train),
      test_(test) {
  validate_config(config_);
  if (train_ == nullptr || test_ == nullptr) {
    throw std::invalid_argument("CentralizedTrainer: null dataset");
  }
}

TrainingResult CentralizedTrainer::run() {
  const std::size_t n = config_.num_clients;
  const std::size_t f = config_.num_byzantine;
  TrainerSetup setup(config_, factory_, *train_);
  global_params_ = setup.initial_parameters();
  const std::size_t dim = setup.dim();

  // Gradient compression (the comp= dimension): honest uploads and the
  // server's broadcast go through the codec with error feedback, so the
  // dropped mass re-enters later rounds and sparsified training still
  // converges.  Without a codec the rows stay exact; wire sizes are still
  // accounted, dense.
  const Codec* codec = setup.codec();
  ErrorFeedback error_feedback(n + 1);  // clients 0..n-1, server id n

  // Simulated pricing of the star round (async NetConfig only): members
  // upload over sampled links, the server waits for the quorum-th arrival,
  // then broadcasts back.
  std::unique_ptr<DelayModel> delay_model;
  if (config_.net.async) delay_model = make_delay_model(config_.net, n);

  // Shard-rule / root-rule pair of the hierarchical aggregation; an empty
  // root means "same rule at both levels".  With cohort= on, the sketched
  // counterparts (the sketch= dimension) are resolved once and swapped in
  // per round when sketch=on, or when sketch=auto and the round inbox
  // reaches the threshold where the JL screen's O(m^2 k) beats the exact
  // O(m^2 d) build.
  const AggregationRulePtr root_rule = config_.cohort.root.empty()
                                           ? config_.rule
                                           : make_rule(config_.cohort.root);
  const bool sketchable =
      config_.cohort.enabled() && config_.sketch != "off";
  const AggregationRulePtr sketch_shard =
      sketchable ? sketched_counterpart(config_.rule) : nullptr;
  const AggregationRulePtr sketch_root =
      sketchable ? sketched_counterpart(root_rule) : nullptr;

  // Membership.  A round's members are the cohort sample (every id when
  // cohort= is off); the liveness schedule, expanded once over the run,
  // says which of them are up.  Without faults= and stale= every round is
  // a barrier: all members upload and the Byzantine budget is counted
  // over the nominal membership.  Otherwise the round is elastic: the
  // server steps on a quorum of whatever arrived, budgeting over the
  // accepted rows.
  const FaultPlan plan(config_.faults, n, config_.rounds, config_.seed);
  const bool barrier = !config_.faults.any() && !config_.stale.enabled();
  const std::size_t tau = config_.stale.tau;  // 0 = only fresh arrivals
  const double decay = config_.stale.decay;
  const std::size_t t = config_.resolved_t();
  const std::size_t members_per_round = config_.cohort.cohort_size(n);
  // The quorum over `live` members: the configured live fraction, or the
  // Byzantine-safe live - t with t clamped to the nominal membership.
  const std::size_t quorum_t = clamp_byzantine_budget(t, members_per_round);
  const auto quorum_of = [&](std::size_t live) {
    const std::size_t need =
        config_.stale.quorum > 0.0
            ? static_cast<std::size_t>(std::ceil(
                  config_.stale.quorum * static_cast<double>(live)))
            : (live > quorum_t ? live - quorum_t : 1);
    return std::max<std::size_t>(need, 1);
  };
  const std::size_t configured_quorum = quorum_of(members_per_round);

  // A gradient on its way to the server: computed against model `version`,
  // it lands in round `ready`.  Uploads that outlive their round (straggler
  // lag, or a Byzantine upload timed to land stale) wait in `in_flight`;
  // with tau = 0 and no stragglers that table stays empty.
  struct Upload {
    std::size_t member = 0;  // position in the arrival round's member list
    std::size_t version = 0;
    std::size_t ready = 0;
    double loss = 0.0;
    std::optional<CompressedGradient> encoded;  // the codec's wire form
    Vector grad;  // in-flight uploads only; arrivals live in `inbox`
  };
  std::map<std::size_t, Upload> in_flight;  // by client id
  // A gradient computed this round, for client `id`: straight into inbox
  // row `row` when it arrives this round, else into its in-flight slot.
  struct Start {
    std::size_t id;
    std::size_t row;
  };
  constexpr std::size_t kInFlight = static_cast<std::size_t>(-1);

  // Round scratch, hoisted: the accepted uploads of a round, in inbox-row
  // order — honest before Byzantine, since members ascend and the
  // Byzantine ids are the last f.
  std::vector<Upload> arrivals;
  std::vector<Start> starters;
  GradientBatch inbox(members_per_round, dim);
  std::vector<const double*> honest_table;  // the attack's view rows

  TrainingResult result;
  result.history.reserve(config_.rounds);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    Stopwatch round_watch;
    BCL_TRACE_SPAN("round");
    const std::vector<std::size_t> members =
        sample_cohort(config_.cohort, n, config_.seed, round);
    const std::size_t k = members.size();
    const std::size_t honest_k = static_cast<std::size_t>(
        std::lower_bound(members.begin(), members.end(), n - f) -
        members.begin());

    // Every idle live member starts a gradient against the current model
    // (a recovering client resyncs here); an in-flight upload due now
    // arrives unless its owner is down or it is more than tau versions
    // stale.
    arrivals.clear();
    starters.clear();
    std::size_t live_members = 0;
    std::size_t stale_accepted = 0;
    std::size_t stale_rejected = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t i = members[c];
      const bool alive = plan.alive(i, round);
      if (alive) ++live_members;
      const auto flying = in_flight.find(i);
      if (flying == in_flight.end()) {
        if (!alive) continue;
        // Honest uploads land after the straggler delay (a factor-K
        // straggler lands K-1 versions stale); Byzantine ones at the
        // staleness the attack picks, clamped to tau (beyond it they would
        // just be rejected).
        const std::size_t lag =
            i < n - f
                ? static_cast<std::size_t>(std::ceil(plan.slowdown(i)) - 1.0)
                : std::min(config_.attack->submit_staleness(round, tau), tau);
        Upload upload;
        upload.member = c;
        upload.version = round;
        upload.ready = round + lag;
        if (lag == 0) {
          starters.push_back({i, arrivals.size()});
          arrivals.push_back(std::move(upload));
        } else {
          upload.grad.assign(dim, 0.0);
          starters.push_back({i, kInFlight});
          in_flight.emplace(i, std::move(upload));
        }
        continue;
      }
      if (flying->second.ready != round) continue;  // still on its way
      Upload upload = std::move(flying->second);
      in_flight.erase(flying);
      if (!alive) continue;  // crashed mid-upload: the gradient dies with it
      if (round - upload.version > tau) {
        ++stale_rejected;
        continue;
      }
      ++stale_accepted;
      upload.member = c;
      arrivals.push_back(std::move(upload));
    }
    inbox.resize(arrivals.size());
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      const Vector& grad = arrivals[a].grad;
      std::copy(grad.begin(), grad.end(), inbox.row(a));
    }
    const auto upload_of = [&](const Start& s) -> Upload& {
      return s.row != kInFlight ? arrivals[s.row] : in_flight.at(s.id);
    };
    const auto row_of = [&](const Start& s) {
      return s.row != kInFlight ? inbox.row(s.row)
                                : in_flight.at(s.id).grad.data();
    };

    {
      BCL_TRACE_SPAN("grad.compute");
      for_each_in_lanes(
          config_.pool, starters.size(), [&](std::size_t lane, std::size_t s) {
            upload_of(starters[s]).loss = setup.gradient(
                lane, starters[s].id, global_params_, row_of(starters[s]));
          });
    }

    // EF-compress the honest uploads in place: the server (and the attack,
    // which observes wire traffic) sees the lossy decodes, and the encoded
    // forms keep the wire sizes and the sparse distance path below.
    if (codec != nullptr) {
      BCL_TRACE_SPAN("codec.encode");
      for (const Start& s : starters) {
        if (s.id >= n - f) continue;
        double* row = row_of(s);
        CompressedGradient encoded = error_feedback.compress(
            *codec, config_.seed, s.id, round, row, dim);
        encoded.decode_into(row);
        upload_of(s).encoded = std::move(encoded);
      }
    }

    std::vector<std::size_t> upload_wire(k, 0);  // by member; 0 = silent
    std::size_t honest_rows = 0;
    double honest_loss = 0.0;
    for (; honest_rows < arrivals.size() &&
           arrivals[honest_rows].member < honest_k;
         ++honest_rows) {
      const Upload& upload = arrivals[honest_rows];
      honest_loss += upload.loss;
      upload_wire[upload.member] = upload.encoded
                                       ? upload.encoded->wire_bytes()
                                       : dense_wire_bytes(dim);
    }
    if (honest_rows > 0) honest_loss /= static_cast<double>(honest_rows);

    // Byzantine submissions, rushing within the round: the attack sees
    // every honest gradient accepted this round, through a view over the
    // inbox's honest prefix (the Byzantine rows written below lie past
    // it).  With a codec the adversary speaks the wire format too (no
    // error feedback — it is not trying to converge).  Silent rounds put
    // nothing on the wire and are compacted out of the inbox.
    std::size_t rows = honest_rows;
    if (arrivals.size() > honest_rows) {
      BCL_TRACE_SPAN("attack.corrupt");
      honest_table.clear();
      for (std::size_t r = 0; r < honest_rows; ++r) {
        honest_table.push_back(inbox.row(r));
      }
      const GradientBatch honest =
          GradientBatch::view(honest_table.data(), honest_rows, dim);
      for (std::size_t a = honest_rows; a < arrivals.size(); ++a) {
        Upload& upload = arrivals[a];
        auto corrupted = config_.attack->corrupt(
            inbox.row_copy(a), honest, round, setup.attack_rng());
        if (!corrupted) continue;
        if (codec != nullptr) {
          upload.encoded = codec->encode(corrupted->data(), dim, config_.seed,
                                         members[upload.member], round);
          upload.encoded->decode_into(inbox.row(rows));
          upload_wire[upload.member] = upload.encoded->wire_bytes();
        } else {
          std::copy(corrupted->begin(), corrupted->end(), inbox.row(rows));
          upload_wire[upload.member] = dense_wire_bytes(dim);
        }
        if (rows != a) arrivals[rows] = std::move(upload);
        ++rows;
      }
    }
    arrivals.resize(rows);
    inbox.resize(rows);

    // Stale rows enter with weight decay^staleness.
    bool unit_weights = true;
    for (std::size_t r = 0; r < rows; ++r) {
      const double weight =
          std::pow(decay, static_cast<double>(round - arrivals[r].version));
      if (weight == 1.0) continue;
      unit_weights = false;
      double* row = inbox.row(r);
      for (std::size_t j = 0; j < dim; ++j) row[j] *= weight;
    }

    // Quorum-or-skip: enough fresh-enough rows and the server steps;
    // otherwise the round is degraded and the model stands still — the loop
    // is a fixed count, so thin membership can never hang the run.
    AggregationContext ctx;
    ctx.n = barrier ? k : rows;
    ctx.t = clamp_byzantine_budget(t, ctx.n);
    ctx.pool = config_.pool;
    ctx.metrics = config_.metrics;
    const std::size_t need =
        std::min(configured_quorum, quorum_of(live_members));
    const bool advanced = rows >= need;
    const double lr = config_.schedule.rate(round);
    std::size_t downlink_wire = 0;
    std::size_t shards = 1;
    double diameter = 0.0;
    if (advanced) {
      // The workspace is built once per round over the inbox; the rule and
      // the heterogeneity metric below share its Gram-trick distance
      // matrix.  When every row arrived sparse-encoded at unit weight (the
      // encoded forms carry unweighted values), the matrix is built from
      // the encoded forms through the sparse Gram kernels — O(pairwise
      // nnz) instead of O(m^2 * d), and lent to the workspace.
      DistanceMatrix sparse_distances;
      std::optional<AggregationWorkspace> workspace;
      shards = std::min(std::max<std::size_t>(config_.cohort.shards, 1), rows);
      const bool use_sketch =
          sketch_shard != nullptr &&
          (config_.sketch == "on" ||
           rows >= TrainingConfig::kSketchAutoThreshold);
      const AggregationRule& shard_rule =
          use_sketch ? *sketch_shard : *config_.rule;
      const AggregationRule& round_root =
          use_sketch && sketch_root != nullptr ? *sketch_root : *root_rule;
      Vector aggregate = [&] {
        BCL_TRACE_SPAN("aggregate.rule");
        const bool sparse =
            codec != nullptr && unit_weights &&
            std::all_of(arrivals.begin(), arrivals.end(),
                        [](const Upload& upload) {
                          return upload.encoded && upload.encoded->sparse();
                        });
        if (sparse) {
          SparseRows sparse_rows(dim);
          for (const Upload& upload : arrivals) {
            upload.encoded->append_row_to(sparse_rows);
          }
          sparse_distances = DistanceMatrix(sparse_rows, ctx.pool);
          workspace.emplace(inbox, &sparse_distances, ctx.pool);
        } else {
          workspace.emplace(inbox, ctx.pool);
        }
        return aggregate_sharded(inbox, *workspace, shard_rule, round_root,
                                 config_.cohort.shards, ctx);
      }();

      // The model update travels back over the same links: the server
      // EF-compresses its broadcast (id n) and every client applies the
      // lossy decode.
      downlink_wire = dense_wire_bytes(dim);
      if (codec != nullptr) {
        BCL_TRACE_SPAN("codec.encode");
        const CompressedGradient encoded = error_feedback.compress(
            *codec, config_.seed, n, round, aggregate.data(), dim);
        encoded.decode_into(aggregate.data());
        downlink_wire = encoded.wire_bytes();
      }
      {
        BCL_TRACE_SPAN("sgd.apply");
        ml::sgd_step(global_params_, aggregate, lr);
      }
      // Honest rows are the inbox prefix: a free subset lookup when the
      // rule already built the shared matrix, else the Gram kernel over
      // the prefix only.
      if (honest_rows >= 2 && workspace->has_distances()) {
        std::vector<std::size_t> honest_ids(honest_rows);
        std::iota(honest_ids.begin(), honest_ids.end(), std::size_t{0});
        diameter = workspace->distances().subset_diameter(honest_ids);
      } else if (honest_rows >= 2) {
        diameter = DistanceMatrix(inbox.row(0), honest_rows, dim, ctx.pool)
                       .diameter();
      }
    }

    RoundMetrics metrics;
    metrics.round = round;
    metrics.learning_rate = lr;
    metrics.mean_honest_loss = honest_loss;
    metrics.accuracy = [&] {
      BCL_TRACE_SPAN("evaluate");
      return setup.evaluate_on_all_lanes(global_params_, *test_,
                                         config_.eval_max_examples);
    }();
    metrics.accuracy_min = metrics.accuracy;
    metrics.accuracy_max = metrics.accuracy;
    metrics.gradient_diameter = diameter;
    metrics.live_clients = static_cast<double>(plan.live_count(round));
    metrics.stale_accepted = static_cast<double>(stale_accepted);
    metrics.stale_rejected = static_cast<double>(stale_rejected);
    metrics.cohort = static_cast<double>(ctx.n);
    metrics.shards = static_cast<double>(shards);
    metrics.degraded = (need < configured_quorum || !advanced) ? 1.0 : 0.0;
    metrics.seconds = round_watch.seconds();

    // Star pricing over the members (member c is star id c, the virtual
    // server id k), then delivered-byte accounting consistent with the
    // event engine's NetworkStats: dropped messages carry no bytes, and
    // the broadcast reaches the live honest members only when the server
    // stepped.
    StarWire star_wire;
    star_wire.uplink_bytes = std::move(upload_wire);
    star_wire.downlink_bytes = downlink_wire;
    StarDelivery delivery;
    if (delay_model != nullptr) {
      metrics.sim_seconds =
          star_round_latency(*delay_model, config_.net, k, k - honest_k, need,
                             round, star_wire, &delivery);
    }
    const double dense = static_cast<double>(dense_wire_bytes(dim));
    double bytes = 0.0;
    double bytes_dense = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (star_wire.uplink_bytes[c] == 0) continue;
      if (!delivery.uplink.empty() && !delivery.uplink[c]) continue;
      bytes += static_cast<double>(star_wire.uplink_bytes[c]);
      bytes_dense += dense;
    }
    if (advanced) {
      for (std::size_t c = 0; c < honest_k; ++c) {
        if (!plan.alive(members[c], round)) continue;
        if (!delivery.downlink.empty() && !delivery.downlink[c]) continue;
        bytes += static_cast<double>(downlink_wire);
        bytes_dense += dense;
      }
    }
    metrics.bytes_delivered = bytes;
    metrics.bytes_dense = bytes_dense;
    publish_round_histograms(config_.metrics, metrics);
    result.history.push_back(metrics);
    if (config_.on_round) config_.on_round(result.history.back());
  }
  result.final_accuracy =
      result.history.empty() ? 0.0 : result.history.back().accuracy;
  return result;
}

}  // namespace bcl
