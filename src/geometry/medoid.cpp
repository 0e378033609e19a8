#include "geometry/medoid.hpp"

#include <stdexcept>

namespace bcl {

double medoid_score(const DistanceMatrix& dist, std::size_t i) {
  if (i >= dist.size()) {
    throw std::invalid_argument("medoid_score: index out of range");
  }
  return dist.row_sum(i);
}

std::size_t medoid_index(const DistanceMatrix& dist) {
  if (dist.empty()) throw std::invalid_argument("medoid of empty list");
  std::size_t best = 0;
  double best_score = dist.row_sum(0);
  for (std::size_t i = 1; i < dist.size(); ++i) {
    const double s = dist.row_sum(i);
    if (s < best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

}  // namespace bcl
