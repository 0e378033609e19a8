#include "aggregation/krum.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bcl {

namespace {

std::size_t closest_count(std::size_t m, const AggregationContext& ctx) {
  // C_i contains the n - t - 1 closest vectors to v_i (Equation 3).
  return std::min(m - 1, ctx.keep() > 0 ? ctx.keep() - 1 : 0);
}

std::size_t krum_best(const DistanceMatrix& dist, std::size_t closest,
                      KrumScore flavour) {
  const auto scores = krum_scores(dist, closest, flavour);
  return static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
}

std::vector<std::size_t> multikrum_order(const DistanceMatrix& dist,
                                         std::size_t closest,
                                         KrumScore flavour) {
  const auto scores = krum_scores(dist, closest, flavour);
  std::vector<std::size_t> order(dist.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] < scores[b];
                   });
  return order;
}

}  // namespace

std::vector<double> krum_scores(const DistanceMatrix& dist,
                                std::size_t closest, KrumScore flavour) {
  const std::size_t m = dist.size();
  if (closest >= m) {
    throw std::invalid_argument("krum_scores: closest must be < m");
  }
  std::vector<double> scores(m, 0.0);
  std::vector<double> dists;
  dists.reserve(m - 1);
  for (std::size_t i = 0; i < m; ++i) {
    dists.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      dists.push_back(flavour == KrumScore::Squared ? dist.dist2(i, j)
                                                    : dist.dist(i, j));
    }
    // nth_element + introsort of the kept prefix produces the same
    // ascending closest-distance order as a partial_sort, in ~1/4 the
    // time when `closest` is most of the row (the Krum regime,
    // closest = n - t - 1): partial_sort degenerates into a full
    // heapsort there.  Same values in the same accumulation order, so
    // scores are bit-identical.
    auto kept = dists.begin() + static_cast<long>(closest);
    std::nth_element(dists.begin(), kept, dists.end());
    std::sort(dists.begin(), kept);
    scores[i] = std::accumulate(dists.begin(), kept, 0.0);
  }
  return scores;
}

Vector KrumRule::do_aggregate(const GradientBatch& batch,
                              AggregationWorkspace& workspace,
                              const AggregationContext& ctx) const {
  const std::size_t closest = closest_count(batch.rows(), ctx);
  if (closest == 0) return batch.row_copy(0);
  return batch.row_copy(krum_best(workspace.distances(), closest, flavour_));
}

Vector MultiKrumRule::do_aggregate(const GradientBatch& batch,
                                   AggregationWorkspace& workspace,
                                   const AggregationContext& ctx) const {
  if (q_ == 0) throw std::invalid_argument("MultiKrum: q must be positive");
  const std::size_t closest = closest_count(batch.rows(), ctx);
  if (closest == 0) return batch.row_copy(0);
  auto order = multikrum_order(workspace.distances(), closest, flavour_);
  order.resize(std::min(q_, batch.rows()));
  return mean_of_rows(batch, order);
}

}  // namespace bcl
