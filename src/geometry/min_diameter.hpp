#pragma once
// Minimum-diameter subset search (Definition 3.4).
//
// MD_geo is an (n - t)-subset of the inputs minimizing the maximum pairwise
// Euclidean distance.  The search is exhaustive over all C(m, k) subsets
// with branch-and-bound pruning on the running diameter, which is exact and
// fast for the paper's parameter regime (m <= ~20).
//
// The search itself only consumes pairwise distances, so both entry points
// take a precomputed DistanceMatrix.  Sharing one matrix across the optimum
// search, the tie enumeration, and any other rule in the round removes the
// repeated O(m^2 * d) recomputation that used to dominate.

#include <cstddef>
#include <vector>

#include "linalg/distance_matrix.hpp"

namespace bcl {

struct MinDiameterResult {
  /// Sorted indices of the chosen subset.
  std::vector<std::size_t> indices;
  /// Its diameter (max pairwise distance).
  double diameter = 0.0;
};

/// Finds one subset of size k with minimum diameter among the points of
/// a pairwise distance matrix.  Ties are resolved toward the
/// lexicographically smallest index set.  Throws if k == 0 or
/// k > dist.size().
MinDiameterResult min_diameter_subset(const DistanceMatrix& dist,
                                      std::size_t k);

/// All subsets of size k whose diameter is within (1 + rel_tol) of the
/// minimum.  "Such a set is not unique" (Definition 3.4) — Lemma 4.2's
/// adversary exploits exactly this freedom, so protocols that want a
/// specific tie-breaking enumerate the tied sets with this helper.
std::vector<MinDiameterResult> min_diameter_subsets(const DistanceMatrix& dist,
                                                    std::size_t k,
                                                    double rel_tol = 1e-12);

}  // namespace bcl
