#pragma once
// Medoid: the input point minimizing the sum of Euclidean distances to all
// other input points.  Used by the Krum family (Section 2.2) and by the
// medoid aggregation rule of El-Mhamdi et al.
//
// The medoid is selected over a DistanceMatrix: callers have already paid
// for the shared pairwise matrix (one inbox, many rules).

#include <cstddef>

#include "linalg/distance_matrix.hpp"

namespace bcl {

/// Medoid index from a precomputed distance matrix (ties broken by lowest
/// index).  Throws std::invalid_argument on an empty matrix.
std::size_t medoid_index(const DistanceMatrix& dist);

/// Sum of distances from point i to every other point, looked up in a
/// precomputed distance matrix.
double medoid_score(const DistanceMatrix& dist, std::size_t i);

}  // namespace bcl
