#include "agreement/protocol.hpp"

#include "obs/trace.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/hyperbox.hpp"
#include "linalg/workspace.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

/// Cross-node memoization of one sub-round's expensive work.
///
/// Key: the inbox's exact row identity — the (sender, payload pointer,
/// payload size) triple of every message, in the sender-sorted delivery
/// order.  The event engine commits each sender's round value to the round
/// book's arena exactly once per sub-round (Byzantine values included:
/// fix_byzantine_values stores a single value per sender, rushing only
/// changes *when* it is fixed), and every delivery carries a view into
/// that storage.  Equal key therefore implies bitwise-equal inbox, and any
/// divergence (drops, timeouts, omission faults, honored delays trimming a
/// straggler) changes the key — the per-node fallback is automatic, not a
/// heuristic.
///
/// Entries hold either the full rule output (a rule whose reads_current()
/// is false is a pure function of the inbox, so n Krum-family evaluations
/// collapse to one) or just the shared DistanceMatrix (rules that read the
/// node's own vector, like the sticky MD-GEOM tie-break, still pay
/// per-node selection but share the O(m^2 d) build).  The first
/// node to arrive computes under std::call_once; the rest block briefly
/// and reuse.  advance_ready_nodes() finalizes nodes in parallel on the
/// engine's pool, so every path here is mutex/once-guarded (TSan-clean).
///
/// clear_round() must run between run_round() barriers: the arena recycles
/// payload storage across rounds, so a stale key could alias a fresh
/// payload at the same address.
class SubroundShareCache {
 public:
  struct Entry {
    std::once_flag once;
    Vector output;             ///< !reads_current(): the shared rule output
    DistanceMatrix distances;  ///< reads_current(): the shared build
  };

  /// Returns the (created-if-absent) entry for this inbox.  `key` is
  /// caller-owned scratch, recycled across sub-rounds.
  std::shared_ptr<Entry> lookup(const std::vector<Message>& inbox,
                                std::vector<std::uintptr_t>& key) {
    key.clear();
    key.reserve(inbox.size() * 3);
    for (const Message& msg : inbox) {
      key.push_back(static_cast<std::uintptr_t>(msg.sender));
      key.push_back(reinterpret_cast<std::uintptr_t>(msg.payload.data()));
      key.push_back(static_cast<std::uintptr_t>(msg.payload.size()));
    }
    lookups_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Entry>& slot = entries_[key];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    return slot;
  }

  void count_build() { builds_.fetch_add(1, std::memory_order_relaxed); }

  void clear_round() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
  }

  std::size_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  std::size_t hits() const {
    return lookups_.load(std::memory_order_relaxed) - builds();
  }

 private:
  std::mutex mutex_;
  std::map<std::vector<std::uintptr_t>, std::shared_ptr<Entry>> entries_;
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> builds_{0};
};

/// Honest participant: holds its current vector, broadcasts it (through
/// the codec when one is configured), applies the rule to each inbox.
class AgreementNode final : public HonestProcess {
 public:
  AgreementNode(std::size_t id, Vector input, AggregationRulePtr rule,
                AggregationContext ctx, const Codec* codec,
                std::uint64_t codec_seed, std::size_t input_wire,
                SubroundShareCache& cache)
      : id_(id),
        current_(std::move(input)),
        rule_(std::move(rule)),
        ctx_(ctx),
        codec_(codec != nullptr && !codec->identity() ? codec : nullptr),
        codec_seed_(codec_seed),
        input_wire_(input_wire),
        cache_(cache) {
    ctx_.current = &current_;
  }

  Vector outgoing(std::size_t round) const override {
    // Sub-round 0 ships the input as the trainer encoded it (see
    // AgreementConfig::codec): no re-encode, priced at input_wire_.
    if (codec_ == nullptr || round == 0) return current_;
    // Later sub-rounds encode the mixed vector: what leaves the node is
    // the lossy decode and what the engine prices is the encoded size.
    // The encode is deterministic per (codec_seed, id, round), so replays
    // agree.
    const CompressedGradient encoded = codec_->encode(
        current_.data(), current_.size(), codec_seed_, id_, round);
    wire_round_ = round;
    wire_bytes_ = encoded.wire_bytes();
    return encoded.decode();
  }

  std::size_t outgoing_wire_bytes(std::size_t round) const override {
    if (codec_ == nullptr) return kDenseWire;
    if (round == 0) return input_wire_;
    // The engine asks immediately after outgoing(round); a mismatched
    // round means no encode happened — price dense.
    if (wire_round_ != round) return kDenseWire;
    return wire_bytes_;
  }

  void receive(std::size_t /*round*/, std::vector<Message>&& inbox) override {
    // Under partial synchrony a timeout (or a dropped neighborhood) can
    // resolve a round below the n - t quorum.  The t-resilient rules are
    // only sound on >= n - t inputs, so the node skips its update and
    // keeps its current vector for this sub-round.
    if (inbox.size() < ctx_.n - ctx_.t) return;
    // One batch + workspace per inbox: every distance consumer inside the
    // rule (Krum scores, medoid, minimum-diameter search, tie enumeration)
    // shares a single Gram-trick pairwise matrix for this sub-round.  The
    // batch borrows the engine's payload spans through the node's pooled
    // row table — zero copies, zero allocations per receive() after the
    // first — and is finished with before this call returns, per the
    // Message ownership rule.
    const GradientBatch received = [&] {
      BCL_TRACE_SPAN("agreement.inbox_build");
      return payload_batch_view(inbox, table_);
    }();
    const std::shared_ptr<SubroundShareCache::Entry> entry =
        cache_.lookup(inbox, sig_);
    if (!rule_->reads_current()) {
      // The rule ignores current_, so the whole output is shareable: the
      // first node with this inbox computes it, everyone else copies.
      bool built = false;
      std::call_once(entry->once, [&] {
        BCL_TRACE_SPAN("agreement.gram_build");
        AggregationWorkspace workspace(received, ctx_.pool);
        entry->output = rule_->aggregate(received, workspace, ctx_);
        cache_.count_build();
        built = true;
      });
      if (built) {
        current_ = entry->output;
      } else {
        BCL_TRACE_SPAN("agreement.shared_hit");
        current_ = entry->output;
      }
    } else {
      // The rule reads current_: its output differs per node, but the
      // O(m^2 d) distance build over an identical inbox does not.
      std::call_once(entry->once, [&] {
        BCL_TRACE_SPAN("agreement.gram_build");
        entry->distances = DistanceMatrix(received, ctx_.pool);
        cache_.count_build();
      });
      BCL_TRACE_SPAN("agreement.step");
      AggregationWorkspace workspace(received, &entry->distances, ctx_.pool);
      current_ = rule_->aggregate(received, workspace, ctx_);
    }
  }

  const Vector& current() const { return current_; }

 private:
  std::size_t id_;
  Vector current_;
  AggregationRulePtr rule_;
  AggregationContext ctx_;  ///< ctx_.current points at current_
  const Codec* codec_;
  std::uint64_t codec_seed_;
  std::size_t input_wire_;
  SubroundShareCache& cache_;
  // Pooled scratch recycled across sub-rounds: the view batch's row table
  // and the share cache's key buffer never re-allocate after round 0.
  std::vector<const double*> table_;
  std::vector<std::uintptr_t> sig_;
  // outgoing() is const in the HonestProcess contract but the wire size of
  // the encode it just performed must reach outgoing_wire_bytes(); cached
  // per round (the engine is single-threaded across these two calls).
  mutable std::size_t wire_round_ = static_cast<std::size_t>(-1);
  mutable std::size_t wire_bytes_ = 0;
};

AgreementResult run_impl(const GradientBatch& inputs, Adversary& adversary,
                         const AgreementConfig& config, bool fixed,
                         std::size_t fixed_rounds) {
  if (config.n == 0 || config.n != inputs.rows()) {
    throw std::invalid_argument(
        "run_approximate_agreement: inputs.rows() must equal config.n");
  }
  if (!config.rule) {
    throw std::invalid_argument(
        "run_approximate_agreement: AgreementConfig::rule is null");
  }
  const std::size_t f = adversary.count_byzantine(config.n);
  if (f > config.t) {
    throw std::invalid_argument(
        "run_approximate_agreement: adversary controls more than t nodes");
  }

  AggregationContext ctx;
  ctx.n = config.n;
  ctx.t = config.t;
  ctx.pool = nullptr;  // node-level parallelism is across nodes, not subsets
  ctx.metrics = config.metrics;

  SubroundShareCache cache;

  std::vector<std::unique_ptr<AgreementNode>> nodes(config.n);
  std::vector<HonestProcess*> processes(config.n, nullptr);
  for (std::size_t i = 0; i < config.n; ++i) {
    if (!adversary.is_byzantine(i)) {
      const std::size_t input_wire = i < config.input_wire_bytes.size()
                                         ? config.input_wire_bytes[i]
                                         : HonestProcess::kDenseWire;
      nodes[i] = std::make_unique<AgreementNode>(
          i, inputs.row_copy(i), config.rule, ctx, config.codec,
          config.codec_seed, input_wire, cache);
      processes[i] = nodes[i].get();
    }
  }

  // Delivery floor n - t: a node may resolve a round at n - t messages,
  // and the network honors adversarial delays of honest messages only down
  // to that guaranteed "up to n messages" minimum.  The sync model runs
  // the same event engine with zero delays and timeout 0 (bitwise the
  // lockstep semantics); an async NetConfig plugs in its delay model,
  // loss, round timeout Delta and adversarial scheduling bound.
  std::unique_ptr<DelayModel> delay_model;
  EventNetworkConfig net_config;
  net_config.quorum = config.n - config.t;
  net_config.pool = config.pool;
  net_config.metrics = config.metrics;
  if (config.codec != nullptr && !config.codec->identity()) {
    net_config.codec = config.codec;
    net_config.codec_seed = config.codec_seed;
  }
  if (config.faults != nullptr) {
    net_config.faults = config.faults;
    net_config.fault_round_offset = config.fault_round;
    net_config.fault_membership_frozen = true;
  }
  if (config.net.async) {
    delay_model = make_delay_model(config.net, config.n);
    net_config.delay = delay_model.get();
    net_config.timeout = config.net.timeout > 0.0 ? config.net.timeout : -1.0;
    net_config.drop_probability = config.net.drop;
    net_config.bandwidth = config.net.bw;
    net_config.adversary_delay_bound = config.net.adv;
    net_config.seed = config.net.seed;
  }
  EventNetwork network(processes, adversary, net_config);
  AgreementResult result;
  for (std::size_t i = 0; i < config.n; ++i) {
    if (nodes[i]) result.honest_ids.push_back(i);
  }

  // The trace measures the honest nodes up in the frozen plan round: a
  // down node never receives, so its vector is its untouched input.
  auto record_trace = [&] {
    std::vector<const double*> live;
    for (const std::size_t i : result.honest_ids) {
      if (config.faults == nullptr ||
          config.faults->alive(i, config.fault_round)) {
        live.push_back(nodes[i]->current().data());
      }
    }
    if (live.empty()) {
      result.trace.honest_diameter.push_back(0.0);
      result.trace.honest_max_edge.push_back(0.0);
      return;
    }
    // The convergence check is itself a pairwise-distance computation;
    // build it through the Gram-trick kernel over a view of the live
    // nodes' vectors (pool-parallel when configured).
    const GradientBatch current =
        GradientBatch::view(live.data(), live.size(), inputs.dim());
    result.trace.honest_diameter.push_back(
        DistanceMatrix(current, config.pool).diameter());
    result.trace.honest_max_edge.push_back(
        Hyperbox::bounding(current).max_edge());
  };

  record_trace();
  const std::size_t rounds = fixed ? fixed_rounds : config.max_rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (!fixed && result.trace.honest_diameter.back() < config.epsilon) {
      result.converged = true;
      break;
    }
    network.run_round();
    // run_round() is a barrier (no receive() in flight past it); drop the
    // round's keys before the arena recycles the payload storage they
    // point into.
    cache.clear_round();
    ++result.rounds;
    result.trace.round_latency.push_back(network.last_round_latency());
    record_trace();
  }
  if (result.trace.honest_diameter.back() < config.epsilon) {
    result.converged = true;
  }

  for (const std::size_t i : result.honest_ids) {
    result.outputs.push_back(nodes[i]->current());
  }
  result.network = network.stats();
  result.sharing.gram_builds = cache.builds();
  result.sharing.shared_hits = cache.hits();
  // The protocol is over when the last round completed; now() can sit past
  // that instant when beyond-quorum stragglers were processed late.
  result.simulated_seconds = network.round_end_times().empty()
                                 ? 0.0
                                 : network.round_end_times().back();
  return result;
}

}  // namespace

AgreementResult run_approximate_agreement(const GradientBatch& inputs,
                                          Adversary& adversary,
                                          const AgreementConfig& config) {
  return run_impl(inputs, adversary, config, /*fixed=*/false, 0);
}

AgreementResult run_fixed_rounds_agreement(const GradientBatch& inputs,
                                           Adversary& adversary,
                                           std::size_t rounds,
                                           const AgreementConfig& config) {
  return run_impl(inputs, adversary, config, /*fixed=*/true, rounds);
}

}  // namespace bcl
