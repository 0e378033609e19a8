#include "learning/client.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

double stochastic_gradient_with(ml::Model& scratch, const ml::Dataset& data,
                                const std::vector<std::size_t>& shard,
                                std::size_t batch_size, Rng& rng,
                                const Vector& parameters,
                                double* out_gradient) {
  if (shard.empty()) {
    throw std::invalid_argument("stochastic_gradient_with: empty shard");
  }
  scratch.set_parameters(parameters);
  const std::size_t batch = std::min(batch_size, shard.size());
  std::vector<std::size_t> indices(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    indices[i] = shard[rng.uniform_u64(shard.size())];
  }
  const double loss = scratch.compute_loss_and_gradient(
      data.batch(indices), data.batch_labels(indices));
  scratch.read_gradients(out_gradient);
  return loss;
}

double evaluate_with(ml::Model& scratch, const Vector& parameters,
                     const ml::Dataset& eval_set, std::size_t max_examples) {
  scratch.set_parameters(parameters);
  std::size_t count = eval_set.size();
  if (max_examples > 0) count = std::min(count, max_examples);
  std::vector<std::size_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0);
  return scratch.accuracy(eval_set.batch(indices),
                          eval_set.batch_labels(indices));
}

namespace {

/// Lanes of a fan-out over `pool`: one per worker plus the calling thread.
/// TrainerSetup builds exactly this many scratch models.
std::size_t lane_count(const ThreadPool* pool) {
  return pool != nullptr ? pool->size() + 1 : 1;
}

}  // namespace

void for_each_in_lanes(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t parts = std::min(count, lane_count(pool));
  if (parts <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  // parallel_for over the chunk indices runs one chunk per task.
  const std::size_t chunk = count / parts;
  const std::size_t rem = count % parts;
  pool->parallel_for(0, parts, [&](std::size_t lane) {
    const std::size_t begin = lane * chunk + std::min(lane, rem);
    const std::size_t end = begin + chunk + (lane < rem ? 1 : 0);
    for (std::size_t i = begin; i < end; ++i) fn(lane, i);
  });
}

TrainerSetup::TrainerSetup(const TrainingConfig& config,
                           const ModelFactory& factory,
                           const ml::Dataset& train)
    : honest_count_(config.num_clients - config.num_byzantine),
      batch_size_(config.batch_size),
      train_(&train),
      codec_(config.codec != nullptr && !config.codec->identity()
                 ? config.codec.get()
                 : nullptr) {
  const std::size_t n = config.num_clients;
  Rng root(config.seed);
  Rng partition_rng = root.split(1);
  shards_ = ml::partition_dataset(train, n, config.heterogeneity,
                                  partition_rng);
  // Data-poisoning attacks (label-flip) corrupt the Byzantine shards here:
  // those clients then train honestly on a poisoned copy of the training
  // set, so their "own gradient" is already attacked.
  byzantine_train_ = poison_byzantine_shards(
      *config.attack, train, shards_, config.num_byzantine, poisoned_train_);
  if (std::any_of(shards_.begin(), shards_.end(),
                  [](const auto& shard) { return shard.empty(); })) {
    whole_train_.resize(train.size());
    std::iota(whole_train_.begin(), whole_train_.end(), std::size_t{0});
  }
  client_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    client_rngs_.push_back(root.split(100 + i));
  }

  const std::size_t lanes = lane_count(config.pool);
  lane_models_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) lane_models_.push_back(factory());

  ml::Model init_model = factory();
  Rng init_rng = root.split(2);
  init_model.initialize(init_rng);
  initial_parameters_ = init_model.parameters();
  attack_rng_ = root.split(3);
}

double TrainerSetup::gradient(std::size_t lane, std::size_t id,
                              const Vector& parameters, double* out) {
  const auto& shard = shards_[id].empty() ? whole_train_ : shards_[id];
  return stochastic_gradient_with(
      lane_models_[lane], id < honest_count_ ? *train_ : *byzantine_train_,
      shard, batch_size_, client_rngs_[id], parameters, out);
}

double TrainerSetup::evaluate(std::size_t lane, const Vector& parameters,
                              const ml::Dataset& eval_set,
                              std::size_t max_examples) {
  return evaluate_with(lane_models_[lane], parameters, eval_set,
                       max_examples);
}

void publish_round_histograms(obs::MetricsRegistry* registry,
                              const RoundMetrics& metrics) {
  if (registry == nullptr) return;
  registry->histogram("round.wall_seconds").record(metrics.seconds);
  registry->histogram("round.sim_seconds").record(metrics.sim_seconds);
  registry->histogram("round.bytes").record(metrics.bytes_delivered);
}

}  // namespace bcl
