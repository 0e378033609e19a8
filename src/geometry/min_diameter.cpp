#include "geometry/min_diameter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bcl {

namespace {

struct SearchState {
  std::size_t m = 0;
  std::size_t k = 0;
  const DistanceMatrix* dist = nullptr;
  std::vector<std::size_t> current;
  // The search compares squared diameters throughout (sqrt is monotone, so
  // pruning and argmin are unchanged) and takes one sqrt of the winner at
  // the end — dist2() is a load where dist() would put a sqrt in the
  // innermost branch-and-bound loop.
  double current_diam2 = 0.0;
  std::vector<std::size_t> best;
  double best_diam2 = std::numeric_limits<double>::infinity();
};

void search(SearchState& s, std::size_t next) {
  if (s.current.size() == s.k) {
    // Strict improvement keeps the first (lexicographically smallest)
    // optimal subset.
    if (s.current_diam2 < s.best_diam2) {
      s.best_diam2 = s.current_diam2;
      s.best = s.current;
    }
    return;
  }
  const std::size_t needed = s.k - s.current.size();
  for (std::size_t i = next; i + needed <= s.m; ++i) {
    double new_diam2 = s.current_diam2;
    for (std::size_t j : s.current) {
      new_diam2 = std::max(new_diam2, s.dist->dist2(i, j));
    }
    if (new_diam2 >= s.best_diam2) continue;  // prune
    s.current.push_back(i);
    const double saved = s.current_diam2;
    s.current_diam2 = new_diam2;
    search(s, i + 1);
    s.current_diam2 = saved;
    s.current.pop_back();
  }
}

void check_subset_size(std::size_t k, std::size_t m) {
  if (k == 0 || k > m) {
    throw std::invalid_argument("min_diameter_subset: invalid subset size");
  }
}

// Depth-first enumeration keeping every subset whose running diameter stays
// within `limit`.
template <typename Visit>
void enumerate_within(const DistanceMatrix& dist, std::size_t k, double limit,
                      Visit&& visit) {
  const std::size_t m = dist.size();
  std::vector<std::size_t> current;
  current.reserve(k);
  const auto recurse = [&](auto&& self, std::size_t next, double diam) -> void {
    if (current.size() == k) {
      visit(current, diam);
      return;
    }
    const std::size_t needed = k - current.size();
    for (std::size_t i = next; i + needed <= m; ++i) {
      double new_diam = diam;
      for (std::size_t j : current) new_diam = std::max(new_diam, dist.dist(i, j));
      if (new_diam > limit) continue;
      current.push_back(i);
      self(self, i + 1, new_diam);
      current.pop_back();
    }
  };
  recurse(recurse, 0, 0.0);
}

}  // namespace

MinDiameterResult min_diameter_subset(const DistanceMatrix& dist,
                                      std::size_t k) {
  check_subset_size(k, dist.size());
  SearchState s;
  s.m = dist.size();
  s.k = k;
  s.dist = &dist;
  s.current.reserve(k);
  search(s, 0);
  MinDiameterResult out;
  out.indices = std::move(s.best);
  out.diameter = s.best_diam2 == std::numeric_limits<double>::infinity()
                     ? 0.0
                     : std::sqrt(s.best_diam2);
  return out;
}

std::vector<MinDiameterResult> min_diameter_subsets(const DistanceMatrix& dist,
                                                    std::size_t k,
                                                    double rel_tol) {
  const MinDiameterResult best = min_diameter_subset(dist, k);
  const double limit = best.diameter * (1.0 + rel_tol) + 1e-300;
  std::vector<MinDiameterResult> out;
  enumerate_within(dist, k, limit,
                   [&](const std::vector<std::size_t>& indices, double diam) {
                     out.push_back(MinDiameterResult{indices, diam});
                   });
  return out;
}

}  // namespace bcl
