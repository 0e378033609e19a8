#include "attacks/attack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bcl {

std::optional<Vector> SignFlipAttack::corrupt(
    const Vector& own_gradient, const GradientBatch& /*honest*/,
    std::size_t /*round*/, Rng& /*rng*/) const {
  return scale(own_gradient, -scale_);
}

std::optional<Vector> CrashAttack::corrupt(const Vector& own_gradient,
                                           const GradientBatch& /*honest*/,
                                           std::size_t round,
                                           Rng& /*rng*/) const {
  if (round >= from_round_) return std::nullopt;
  return own_gradient;
}

std::optional<Vector> RandomGradientAttack::corrupt(
    const Vector& own_gradient, const GradientBatch& /*honest*/,
    std::size_t /*round*/, Rng& rng) const {
  Vector out(own_gradient.size());
  for (double& x : out) x = rng.gaussian(0.0, sigma_);
  return out;
}

std::optional<Vector> ScaleAttack::corrupt(const Vector& own_gradient,
                                           const GradientBatch& /*honest*/,
                                           std::size_t /*round*/,
                                           Rng& /*rng*/) const {
  return scale(own_gradient, factor_);
}

std::optional<Vector> ZeroAttack::corrupt(const Vector& own_gradient,
                                          const GradientBatch& /*honest*/,
                                          std::size_t /*round*/,
                                          Rng& /*rng*/) const {
  return zeros(own_gradient.size());
}

std::optional<Vector> OppositeMeanAttack::corrupt(
    const Vector& own_gradient, const GradientBatch& honest,
    std::size_t /*round*/, Rng& /*rng*/) const {
  if (honest.empty()) return scale(own_gradient, -scale_);
  return scale(mean(honest), -scale_);
}

std::optional<Vector> StaleStrikeAttack::corrupt(
    const Vector& own_gradient, const GradientBatch& honest,
    std::size_t /*round*/, Rng& /*rng*/) const {
  // Strike only into thin cohorts when a threshold is set; blending in
  // with an honest-looking gradient otherwise keeps the attacker under
  // the radar of history-free defences.
  if (cohort_ > 0 && honest.rows() > cohort_) return own_gradient;
  if (honest.empty()) return scale(own_gradient, -scale_);
  return scale(mean(honest), -scale_);
}

std::optional<Vector> ALittleIsEnoughAttack::corrupt(
    const Vector& own_gradient, const GradientBatch& honest,
    std::size_t /*round*/, Rng& /*rng*/) const {
  if (honest.empty()) return own_gradient;
  const std::size_t d = own_gradient.size();
  const Vector mu = mean(honest);
  Vector out(d);
  const double inv = 1.0 / static_cast<double>(honest.rows());
  for (std::size_t k = 0; k < d; ++k) {
    double var = 0.0;
    for (std::size_t i = 0; i < honest.rows(); ++i) {
      const double g = honest.row(i)[k];
      var += (g - mu[k]) * (g - mu[k]);
    }
    out[k] = mu[k] + z_ * std::sqrt(var * inv);
  }
  return out;
}

std::optional<Vector> MimicAttack::corrupt(const Vector& own_gradient,
                                           const GradientBatch& honest,
                                           std::size_t /*round*/,
                                           Rng& /*rng*/) const {
  if (honest.empty()) return own_gradient;
  const std::size_t idx = std::min(target_, honest.rows() - 1);
  return honest.row_copy(idx);
}

std::optional<Vector> MinMaxAttack::corrupt(const Vector& own_gradient,
                                            const GradientBatch& honest,
                                            std::size_t /*round*/,
                                            Rng& /*rng*/) const {
  if (honest.empty()) return scale(own_gradient, -1.0);
  // The per-pair diameter/distance below are the exact kernels the budget
  // is defined by (a Gram-trick diameter would move bits), and they speak
  // VectorList: one copy of the honest rows serves the whole search.
  const VectorList honest_gradients = honest.to_vectors();
  const Vector mu = mean(honest_gradients);
  const double mu_norm = norm2(mu);
  if (mu_norm == 0.0) return mu;  // no descent direction to oppose
  const Vector p = scale(mu, -1.0 / mu_norm);

  // Honest diameter: the distance budget any crafted vector must respect to
  // look like one more honest straggler under pairwise-distance filters.
  const double budget = diameter(honest_gradients);

  // fits(gamma): max_i ||mu + gamma p - g_i|| <= budget.  Monotone in gamma
  // (the crafted point moves along a ray leaving the honest hull), so the
  // largest feasible gamma is found by doubling + bisection.
  auto fits = [&](double gamma) {
    Vector mal = mu;
    axpy(mal, gamma, p);
    for (const auto& g : honest_gradients) {
      if (distance(mal, g) > budget) return false;
    }
    return true;
  };
  if (!fits(0.0)) return mu;  // degenerate (budget 0 with spread): stay put
  double lo = 0.0;
  double hi = std::max(budget, 1e-12);
  for (int i = 0; i < 60 && fits(hi); ++i) {
    lo = hi;
    hi *= 2.0;
  }
  for (int i = 0; i < 50; ++i) {
    const double mid = 0.5 * (lo + hi);
    (fits(mid) ? lo : hi) = mid;
  }
  Vector out = mu;
  axpy(out, lo, p);
  return out;
}

std::optional<Vector> LabelFlipAttack::corrupt(const Vector& own_gradient,
                                               const GradientBatch& /*honest*/,
                                               std::size_t /*round*/,
                                               Rng& /*rng*/) const {
  return own_gradient;
}

std::optional<Vector> NoAttack::corrupt(const Vector& own_gradient,
                                        const GradientBatch& /*honest*/,
                                        std::size_t /*round*/,
                                        Rng& /*rng*/) const {
  return own_gradient;
}

void flip_labels_in_place(ml::Dataset& dataset,
                          const std::vector<std::size_t>& shard) {
  for (std::size_t i : shard) {
    const std::uint8_t y = dataset.labels.at(i);
    dataset.labels[i] =
        static_cast<std::uint8_t>(dataset.num_classes - 1 - y);
  }
}

const ml::Dataset* poison_byzantine_shards(
    const GradientAttack& attack, const ml::Dataset& train,
    const std::vector<std::vector<std::size_t>>& shards,
    std::size_t num_byzantine, ml::Dataset& poisoned_storage) {
  if (num_byzantine == 0 || !attack.poisons_labels()) return &train;
  poisoned_storage = train;
  for (std::size_t i = shards.size() - num_byzantine; i < shards.size();
       ++i) {
    flip_labels_in_place(poisoned_storage, shards[i]);
  }
  return &poisoned_storage;
}

}  // namespace bcl
