#pragma once
// Client-side computation shared by both trainers.  A client is not an
// object: its state is a shard of the training set and a private RNG
// stream, and its stochastic gradient (Equation 2 of the paper) is computed
// on whichever scratch model the worker lane running it owns.  Per-client
// memory is therefore O(1) — no model replica per client — which is what
// lets the centralized trainer stream 10^5 clients through one round.

#include <cstddef>
#include <functional>
#include <vector>

#include "learning/config.hpp"
#include "linalg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

namespace bcl {

namespace obs {
class MetricsRegistry;
}

/// Builds a fresh (uninitialized) model; the trainers build one scratch
/// replica per worker lane plus the initial model.
using ModelFactory = std::function<ml::Model()>;

/// One stochastic gradient over a caller-provided scratch model: sets
/// `parameters` on `scratch`, samples one mini-batch of `shard` from `rng`
/// (with replacement) and writes the gradient into
/// out_gradient[0..parameter_count).  Returns the mini-batch loss.  The
/// scratch model's state is fully overwritten, so which replica computes a
/// given (parameters, shard, rng) triple never affects the result.  Throws
/// std::invalid_argument on an empty shard.
double stochastic_gradient_with(ml::Model& scratch, const ml::Dataset& data,
                                const std::vector<std::size_t>& shard,
                                std::size_t batch_size, Rng& rng,
                                const Vector& parameters, double* out_gradient);

/// Accuracy of the model at `parameters` on the first `max_examples` of
/// `eval_set` (0 = all), over a scratch model (stateless given
/// `parameters`; same sharing rationale as stochastic_gradient_with).
double evaluate_with(ml::Model& scratch, const Vector& parameters,
                     const ml::Dataset& eval_set, std::size_t max_examples = 0);

/// Runs fn(lane, i) for every i in [0, count), split into contiguous chunks
/// exactly like ThreadPool::parallel_for's static schedule; `lane` is the
/// chunk index, so every lane's indices run on one thread and a per-lane
/// scratch model is never shared.  Serial on lane 0 without a pool.
void for_each_in_lanes(ThreadPool* pool, std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn);

/// The per-run state both trainers derive identically from the config:
/// the data partition (Byzantine shards label-poisoned when the attack
/// asks for it), one RNG stream per client, the initial model, the attack's
/// RNG stream, the resolved codec and one scratch model per worker lane.
/// Streams come from fixed splits of the root seed (partition 1, initial
/// model 2, attack 3, client i 100 + i), so a run is a pure function of
/// the config.  A client whose partition shard is empty (more clients than
/// training examples) samples the whole training set instead.
class TrainerSetup {
 public:
  /// `train` must outlive the setup.
  TrainerSetup(const TrainingConfig& config, const ModelFactory& factory,
               const ml::Dataset& train);
  TrainerSetup(const TrainerSetup&) = delete;
  TrainerSetup& operator=(const TrainerSetup&) = delete;

  const Vector& initial_parameters() const { return initial_parameters_; }
  std::size_t dim() const { return initial_parameters_.size(); }

  /// The configured codec, or nullptr when it is absent or the identity
  /// (the trainers then take the exact dense path).
  const Codec* codec() const { return codec_; }

  Rng& attack_rng() { return attack_rng_; }

  /// Client `id`'s stochastic gradient at `parameters`, computed on lane
  /// `lane`'s scratch model into `out` (see for_each_in_lanes).  Returns
  /// the mini-batch loss.
  double gradient(std::size_t lane, std::size_t id, const Vector& parameters,
                  double* out);

  /// Accuracy at `parameters` on lane `lane`'s scratch model.
  double evaluate(std::size_t lane, const Vector& parameters,
                  const ml::Dataset& eval_set, std::size_t max_examples);

 private:
  std::size_t honest_count_;
  std::size_t batch_size_;
  const ml::Dataset* train_;
  ml::Dataset poisoned_train_;
  const ml::Dataset* byzantine_train_;
  std::vector<std::vector<std::size_t>> shards_;
  std::vector<std::size_t> whole_train_;  // fallback for empty shards
  std::vector<Rng> client_rngs_;
  std::vector<ml::Model> lane_models_;
  Vector initial_parameters_;
  Rng attack_rng_;
  const Codec* codec_;
};

/// Publishes the per-round distributions both trainers report
/// (round.wall_seconds / round.sim_seconds / round.bytes); no-op without a
/// registry.
void publish_round_histograms(obs::MetricsRegistry* registry,
                              const RoundMetrics& metrics);

}  // namespace bcl
