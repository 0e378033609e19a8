#pragma once
// Symmetric pairwise Euclidean distance matrix.
//
// Every distance-based primitive in the library (Krum scores, medoid,
// minimum-diameter subset search, diameter traces, the agreement protocol's
// convergence check) reduces to lookups into the same O(m^2) set of pairwise
// distances over one inbox of m vectors.  Computing that set is the dominant
// O(m^2 * d) cost of a round; everything downstream is O(m^2) or cheaper.
// DistanceMatrix computes the set exactly once — optionally parallel over
// the ThreadPool — and hands out constant-time lookups, so a comparison
// suite running r rules over one inbox pays O(m^2 * d) once instead of r
// times.
//
// Only squared distances are stored (m^2 doubles; the historical d_/d2_
// pair stored both and doubled the footprint): hot loops (Krum's squared
// flavour, diameter maximization) consume d^2 directly, and dist() takes
// the one std::sqrt at the call site.  sqrt is correctly rounded, so
// dist() is bitwise identical to the historical precomputed entries, and
// diameter() keeps its documented bitwise agreement with bcl::diameter()
// (both maximize over squared entries and take a single final sqrt).
//
// Two dense build paths exist:
//  - the GradientBatch constructor, behind every AggregationWorkspace,
//    uses the Gram trick: when a cheap streaming check finds the rows'
//    common offset dominating their spread, the rows are first re-based
//    against row 0 (distances are translation-invariant, and the re-basing
//    removes the catastrophic cancellation the raw identity suffers for
//    tightly clustered points far from the origin), then one blocked
//    G = X * X^T product (kernels::gram_upper_columns, SIMD-capable and
//    self-scheduled across column blocks of the upper triangle) yields
//    ||x_i - x_j||^2 = G_ii + G_jj - 2 G_ij.  The contiguous layout and the
//    register-blocked kernel replace m^2/2 latency-bound scalar loops, and
//    the result agrees with the per-pair build to ~1e-12 relative to the
//    squared spread (clamped at zero, and exactly zero for bitwise-equal
//    rows, since norms are read off the Gram diagonal and the kernel's
//    per-entry arithmetic is blocking-independent);
//  - the VectorList constructor evaluates distance_squared per pair (rows
//    handed out via the pool's dynamic schedule; the triangular row loop is
//    exactly the imbalanced shape the static schedule handles poorly).  It
//    is the exact oracle the tests lend a workspace (or a geometry helper)
//    to check the Gram path against; nothing in the library builds it.
//
// A borrowed view batch (GradientBatch::view) has no flat buffer, so the
// batch constructor first gathers its rows into a buffer owned by that one
// build and then runs the same kernel: the gather reads the same bytes in
// the same order as an owned batch would hold them, so the result is
// bitwise the owned-batch build.

#include <cstddef>
#include <cmath>
#include <vector>

#include "linalg/gradient_batch.hpp"
#include "linalg/sparse_rows.hpp"
#include "linalg/vector_ops.hpp"

namespace bcl {

class ThreadPool;

class DistanceMatrix {
 public:
  /// Empty matrix (size 0); usable as a cheap default.
  DistanceMatrix() = default;

  /// Computes all pairwise distances of `points` (which must share one
  /// dimension; throws std::invalid_argument otherwise) with the exact
  /// per-pair kernel.  With a non-null `pool` the rows are self-scheduled
  /// across the pool's workers; the result is identical to the serial
  /// build.
  explicit DistanceMatrix(const VectorList& points, ThreadPool* pool = nullptr);

  /// Gram-trick build over a batch (see the header comment).  With a
  /// non-null `pool` the row tiles of G are self-scheduled across the
  /// workers; the result is bitwise identical to the serial build (every G
  /// entry is one sequential dot regardless of which worker computes it).
  /// A borrowed view batch is gathered once into a buffer owned by this
  /// build — same values, same kernel, bitwise the owned-batch build.
  explicit DistanceMatrix(const GradientBatch& batch,
                          ThreadPool* pool = nullptr);

  /// Gram-trick build over m raw row-major rows of dimension d (a zero-copy
  /// slice of a larger batch, e.g. the honest prefix of a round's gradient
  /// block).  The batch constructor delegates here.
  DistanceMatrix(const double* rows, std::size_t m, std::size_t d,
                 ThreadPool* pool = nullptr);

  /// Sparse Gram build over a CSR batch (top-k / rand-k compressed
  /// inboxes): a row-merge SpGEMM over the CSR rows and their CSC
  /// transpose (kernels::spgemm_gram_row) — each Gram row scatters through
  /// the columns of its stored coordinates, so only coordinates two rows
  /// actually share are ever multiplied, O(nnz * avg column length)
  /// total instead of the pairwise merge's O(m^2 * avg nnz) row re-walks.
  /// Every G entry accumulates its common coordinates in increasing-k
  /// order, bitwise identical to the sparse_dot_sparse pairwise build it
  /// replaced.  Same identity, zero clamp and cancellation guard as the
  /// dense Gram path (the guard recomputes through the sparse difference
  /// form), and the result agrees with the dense constructors to the
  /// documented ~1e-12 relative tolerance.  No rebase pass: sparse rows
  /// have no common offset to cancel (a shared offset would densify
  /// them).
  explicit DistanceMatrix(const SparseRows& rows, ThreadPool* pool = nullptr);

  /// Number of points m.
  std::size_t size() const { return m_; }
  bool empty() const { return m_ == 0; }

  /// Euclidean distance between points i and j (0 on the diagonal).
  double dist(std::size_t i, std::size_t j) const {
    return std::sqrt(d2_[i * m_ + j]);
  }

  /// Squared Euclidean distance between points i and j.
  double dist2(std::size_t i, std::size_t j) const { return d2_[i * m_ + j]; }

  /// Sum of distances from point i to every other point (the medoid score).
  double row_sum(std::size_t i) const;

  /// Maximum pairwise distance (the diameter of the point set).
  double diameter() const;

  /// Maximum pairwise distance within the subset given by `indices`.
  double subset_diameter(const std::vector<std::size_t>& indices) const;

 private:
  std::size_t m_ = 0;
  std::vector<double> d2_;  // m_ x m_, row-major, squared Euclidean
};

}  // namespace bcl
