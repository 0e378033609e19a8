#pragma once
// Multidimensional approximate agreement protocols (Section 2.3).
//
// Every honest node starts with an input vector; in each synchronous round
// it reliably broadcasts its vector, collects the inbox and applies the
// aggregation rule to it.  The protocol targets epsilon-agreement: any two
// honest outputs within Euclidean distance epsilon.  With the hyperbox rule
// BOX-GEOM this is Algorithm 2, and Theorem 4.4 guarantees E_max halves
// every round; with MD-GEOM it is Algorithm 1, which Lemma 4.2 shows need
// not converge.
//
// Nodes whose sub-round inboxes are exactly equal (same senders delivering
// the same stored payload spans: the engine commits each sender's round
// value once, so pointer identity is an exact content signature) share one
// build.  When the rule's reads_current() is false the whole output is
// shared; otherwise only the distance matrix is, and each node runs its
// own call with AggregationContext::current pointing at its vector.  Under
// net=sync with no faults every honest node sees the same inbox, so n
// O(n^2 d) builds collapse to one; divergent inboxes (drops, timeouts,
// omissions) miss the signature and build per node.  Sharing is bitwise
// identical to a private call per node (tests/agreement_oracle.hpp).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "aggregation/rule.hpp"
#include "compression/codec.hpp"
#include "linalg/gradient_batch.hpp"
#include "network/adversary.hpp"
#include "network/delay_model.hpp"
#include "network/event_network.hpp"

namespace bcl {

class ThreadPool;

struct AgreementConfig {
  std::size_t n = 0;  ///< nodes in the system (honest + Byzantine)
  std::size_t t = 0;  ///< designed fault tolerance (t < n/3 for hyperbox)
  /// Aggregation rule every honest node applies to its inbox in every
  /// round.  Required: the run throws std::invalid_argument without one.
  AggregationRulePtr rule;
  /// Stop once the honest vectors have pairwise distance < epsilon
  /// (checked omnisciently by the harness, as usual in the agreement
  /// literature when the round count is not fixed a priori).
  double epsilon = 1e-6;
  /// Round cap of run_approximate_agreement (run_fixed_rounds_agreement
  /// takes its own round count and ignores this and epsilon).
  std::size_t max_rounds = 64;
  /// Optional pool for parallel node execution.
  ThreadPool* pool = nullptr;
  /// Timing model of the rounds: the default (sync) runs the zero-delay
  /// lockstep engine; an async NetConfig runs the same protocol on the
  /// discrete-event engine with that delay/drop/timeout configuration
  /// (net.seed drives the sampled latencies).
  NetConfig net;
  /// Optional gradient codec (not owned; must outlive the run).
  /// Sub-round 0 broadcasts each node's input *untransformed* — the
  /// trainers already routed the inputs through the codec (their loss
  /// lives in the error-feedback residuals), and re-encoding a stochastic
  /// codec under a fresh stream would re-sparsify onto a different
  /// support, silently destroying the gradient outside EF's view.  From
  /// sub-round 1 on, the mixed vectors are encoded through the codec: the
  /// payload delivered is the lossy decode and the wire size priced by
  /// the engine is the encoded size.  nullptr or an identity codec =
  /// dense broadcasts, bitwise the uncompressed protocol.
  const Codec* codec = nullptr;
  /// Seed of the codec's per-(sender, round) randomness (the trainers mix
  /// it per learning round, like net.seed).
  std::uint64_t codec_seed = 0;
  /// Wire sizes of the round-0 inputs, indexed by node id (the encoded
  /// sizes the trainer produced).  Empty, or HonestProcess::kDenseWire at
  /// an entry = price that input dense.  Ignored without a codec.
  std::vector<std::size_t> input_wire_bytes;
  /// Liveness schedule (not owned; must outlive the run).  Membership is
  /// frozen at the plan's `fault_round` across every sub-round of this
  /// agreement instance: the decentralized trainer runs one instance per
  /// learning round and advances the plan between them, so the quorum
  /// degrades with the learning round's live set but sub-rounds stay
  /// internally consistent.  nullptr = everyone up.
  const FaultPlan* faults = nullptr;
  std::size_t fault_round = 0;
  /// Optional per-scenario metrics registry: forwarded to the event
  /// engine (per-message delay histogram) and the aggregation context
  /// (sketch certification counters).  Not owned; nullptr records
  /// nothing.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-round convergence trace.  Measured over the honest nodes that are
/// up in the instance's frozen FaultPlan round (every honest node without
/// a plan): a down node never receives, so its vector is its untouched
/// input and says nothing about agreement.  When fewer than n - t nodes
/// are up, the live nodes skip their updates, and the trace reports their
/// real, unreduced spread.  0 when no honest node is up.
struct AgreementTrace {
  /// Diameter of the live honest vectors at the start of each round
  /// (index 0 = inputs).
  std::vector<double> honest_diameter;
  /// E_max of the bounding box of the live honest vectors at the start of
  /// each round.
  std::vector<double> honest_max_edge;
  /// Simulated duration of each executed round (empty index 0 offset:
  /// entry r is the latency of round r).  All zeros under the sync model.
  std::vector<double> round_latency;
};

/// Cross-node sub-round sharing counters (see the header comment).
struct SharingStats {
  /// Distance/step builds actually executed across all sub-rounds.
  std::size_t gram_builds = 0;
  /// receive() calls that reused another node's build instead of paying
  /// their own (lookups - builds).
  std::size_t shared_hits = 0;
};

struct AgreementResult {
  /// Final vector of each honest node, ordered by node id.
  VectorList outputs;
  /// Ids of the honest nodes, aligned with `outputs`.
  std::vector<std::size_t> honest_ids;
  std::size_t rounds = 0;
  bool converged = false;  ///< pairwise distance < epsilon reached
  AgreementTrace trace;
  NetworkStats network;
  /// Total simulated time of the run (0 under the sync model).
  double simulated_seconds = 0.0;
  /// Cross-node sharing effectiveness.
  SharingStats sharing;
};

/// Runs approximate agreement.  Row i of `inputs` (n rows, owned or a
/// view) is the input vector of node i; each honest node copies its row
/// at start, and rows at Byzantine ids (per the adversary) are never read.
/// The decentralized trainer passes its round gradient block as is;
/// callers holding a VectorList wrap it with GradientBatch::from.  Throws
/// if inputs.rows() != n, config.rule is null or the adversary controls
/// more than t ids.
AgreementResult run_approximate_agreement(const GradientBatch& inputs,
                                          Adversary& adversary,
                                          const AgreementConfig& config);

/// Same protocol but always runs exactly `rounds` rounds, with no epsilon
/// test (the decentralized trainer runs ceil(log2(T + 2)) sub-rounds in
/// learning iteration T, the paper's schedule).
AgreementResult run_fixed_rounds_agreement(const GradientBatch& inputs,
                                           Adversary& adversary,
                                           std::size_t rounds,
                                           const AgreementConfig& config);

}  // namespace bcl
