#include "learning/config.hpp"

#include <algorithm>
#include <stdexcept>

namespace bcl {

double TrainingResult::best_accuracy() const {
  double best = 0.0;
  for (const auto& metrics : history) best = std::max(best, metrics.accuracy);
  return best;
}

double TrainingResult::sim_seconds_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.sim_seconds;
  return total;
}

double TrainingResult::bytes_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.bytes_delivered;
  return total;
}

double TrainingResult::bytes_dense_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.bytes_dense;
  return total;
}

double TrainingResult::compression_ratio() const {
  const double actual = bytes_total();
  if (actual <= 0.0) return 1.0;
  return bytes_dense_total() / actual;
}

double TrainingResult::rounds_degraded_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.degraded;
  return total;
}

double TrainingResult::stale_accepted_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.stale_accepted;
  return total;
}

double TrainingResult::stale_rejected_total() const {
  double total = 0.0;
  for (const auto& metrics : history) total += metrics.stale_rejected;
  return total;
}

void validate_config(const TrainingConfig& config) {
  if (config.num_clients == 0) {
    throw std::invalid_argument("TrainingConfig: num_clients must be > 0");
  }
  if (config.num_byzantine >= config.num_clients) {
    throw std::invalid_argument(
        "TrainingConfig: num_byzantine must be < num_clients");
  }
  if (3 * config.resolved_t() >= config.num_clients) {
    throw std::invalid_argument(
        "TrainingConfig: Byzantine resilience requires t < n/3");
  }
  if (!config.rule) {
    throw std::invalid_argument("TrainingConfig: aggregation rule not set");
  }
  if (!config.attack) {
    throw std::invalid_argument("TrainingConfig: attack not set (use 'none')");
  }
  if (config.rounds == 0) {
    throw std::invalid_argument("TrainingConfig: rounds must be > 0");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("TrainingConfig: batch_size must be > 0");
  }
  if (config.cohort.enabled() &&
      (config.faults.any() || config.stale.enabled())) {
    // Sampling a cohort and expiring in-flight uploads of clients outside
    // it is unspecified — reject instead of guessing.
    throw std::invalid_argument(
        "TrainingConfig: cohort= cannot be combined with faults= or stale=");
  }
  if (config.sketch != "auto" && config.sketch != "on" &&
      config.sketch != "off") {
    throw std::invalid_argument("TrainingConfig: unknown sketch '" +
                                config.sketch + "' (valid: auto, on, off)");
  }
}

}  // namespace bcl
