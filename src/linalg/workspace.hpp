#pragma once
// Per-inbox aggregation workspace.
//
// An AggregationWorkspace bundles one inbox — a borrowed GradientBatch —
// with its pairwise DistanceMatrix and the worker pool to build it with.  A
// node (or the central server, or a bench harness comparing rules)
// constructs one workspace per inbox and passes it to every rule and
// geometry search that consumes the same vectors, so the
// O(m^2 * d) distance computation happens at most once per inbox no matter
// how many consumers run off it.
//
// The distance matrix is either
//  - built lazily on first use with the Gram-trick batch build, so rules
//    that never read it (MEAN, CW-MEDIAN, TRIM-MEAN, the hyperbox,
//    GEOMED, RFA and clipping rules) never trigger it; or
//  - borrowed from a producer that already holds it: the agreement
//    protocol's sub-round share cache (one build for every node whose
//    inbox matches) and the centralized trainer's sparse Gram build over a
//    compressed inbox.
// Weiszfeld never iterates on this matrix (a borrowed one may be a test's
// per-pair oracle or a sparse Gram): BOX-GEOM builds its own over the
// batch, and every other median one over its own rows.
// The batch and a borrowed matrix must outlive the workspace.
//
// A workspace is intended for single-threaded use (one node's round);
// internal consumers may still fan work out across the attached pool.

#include <cstddef>

#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"

namespace bcl {

class ThreadPool;

class AggregationWorkspace {
 public:
  /// Borrows `batch`; `pool`, when non-null, parallelizes the distance
  /// build and is exposed to subset-parallel consumers.
  explicit AggregationWorkspace(const GradientBatch& batch,
                                ThreadPool* pool = nullptr)
      : batch_(&batch), pool_(pool) {}

  /// Borrows `batch` AND its distance matrix `shared` (non-null, covering
  /// the same rows, owned elsewhere).
  AggregationWorkspace(const GradientBatch& batch,
                       const DistanceMatrix* shared,
                       ThreadPool* pool = nullptr)
      : batch_(&batch), pool_(pool), distances_(shared) {}

  AggregationWorkspace(const AggregationWorkspace&) = delete;
  AggregationWorkspace& operator=(const AggregationWorkspace&) = delete;

  /// The borrowed inbox.
  const GradientBatch& batch() const { return *batch_; }

  /// Number of vectors in the inbox.
  std::size_t size() const { return batch_->rows(); }

  ThreadPool* pool() const { return pool_; }

  /// True once the distance matrix is available (borrowed or built).
  bool has_distances() const { return distances_ != nullptr; }

  /// The pairwise distance matrix of the inbox: the borrowed one, else
  /// built on first use (pool-parallel when a pool is attached) and cached.
  const DistanceMatrix& distances() {
    if (distances_ == nullptr) {
      built_ = DistanceMatrix(*batch_, pool_);
      distances_ = &built_;
    }
    return *distances_;
  }

 private:
  const GradientBatch* batch_;
  ThreadPool* pool_;
  const DistanceMatrix* distances_ = nullptr;
  DistanceMatrix built_;
};

}  // namespace bcl
