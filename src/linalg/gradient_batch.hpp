#pragma once
// Contiguous row-major batch of m gradient vectors in R^d.
//
// The aggregation stack historically passed inboxes around as
// std::vector<std::vector<double>> (VectorList): every row is a separate
// heap allocation, so the O(m^2 * d) distance build and the coordinate-wise
// reductions pay a pointer chase per row and defeat both hardware
// prefetching and cache blocking.  GradientBatch stores the same m x d
// values in one flat buffer with zero-copy row views, which is the layout
// the kernels.hpp micro-kernels (Gram build, column reductions, gemm)
// require.
//
// Producers write rows in place (clients deposit gradients directly via
// row()); the few edges that still speak VectorList (the min-max attack,
// the approximation-ratio helpers, tests) convert explicitly with
// to_vectors() / from().  The batch owns its storage; row pointers are
// invalidated by resize().
//
// --- View mode --------------------------------------------------------------
//
// A batch can alternatively *borrow* its m rows through a caller-owned
// pointer table (view()): row i is then an externally owned span of d
// doubles — e.g. the event engine's round-arena payload views — and the
// batch owns nothing, so building it costs m pointers instead of an m x d
// copy.  This is what lets the agreement protocol consume an inbox
// zero-copy: n receivers of one sub-round share the arena's single stored
// copy of each broadcast instead of materializing n private m x d batches.
//
// A view batch is read-only (the rows belong to someone else): the
// mutating accessors throw std::logic_error on it, and the flat data()
// accessors require contiguous() — row-based consumers (row(), row_copy(),
// to_vectors(), mean_of_rows(), the blocked column passes, Weiszfeld and
// the bounding box) work on either representation unchanged, and the few
// flat-layout consumers (mean's col_sum, the Gram build, sharded slicing)
// branch on contiguous().  rows_view() lends a subset of rows the same
// way, so the subset rules hand Weiszfeld their rows in place.
// Lifetime rule, mirroring network/message.hpp: both the rows and the
// pointer table must outlive the view batch.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace bcl {

class GradientBatch {
 public:
  /// Empty batch (0 x 0).
  GradientBatch() = default;

  /// Zero-filled m x d batch.
  GradientBatch(std::size_t rows, std::size_t dim)
      : m_(rows), d_(dim), data_(rows * dim, 0.0) {}

  /// Copies a VectorList into contiguous storage (rows must share one
  /// dimension; throws std::invalid_argument otherwise).
  static GradientBatch from(const VectorList& vs);

  /// Borrowed view over m rows of dimension `dim` owned elsewhere:
  /// rows[i] points at row i's d contiguous doubles.  Both the row storage
  /// and the `rows` table itself must outlive the returned batch (the
  /// table is typically a caller scratch vector recycled across rounds).
  static GradientBatch view(const double* const* rows, std::size_t m,
                            std::size_t dim);

  std::size_t rows() const { return m_; }
  std::size_t dim() const { return d_; }
  bool empty() const { return m_ == 0; }

  /// True when the batch owns one flat row-major buffer (data() is then
  /// valid); false for a borrowed row-table view.
  bool contiguous() const { return view_rows_ == nullptr; }

  /// Zero-copy view of row i (d contiguous doubles).
  double* row(std::size_t i) {
    check_owned();
    return data_.data() + i * d_;
  }
  const double* row(std::size_t i) const {
    return view_rows_ == nullptr ? data_.data() + i * d_ : view_rows_[i];
  }

  /// The whole m x d buffer, row-major.  Owned batches only (a view has no
  /// flat buffer): throws std::logic_error on a view batch.
  double* data() {
    check_owned();
    return data_.data();
  }
  const double* data() const {
    check_owned();
    return data_.data();
  }

  /// Changes the row count, keeping the dimension and the leading rows'
  /// values; added rows are zero.  Capacity is retained, so a batch reused
  /// across rounds stops allocating once it has reached its largest size.
  /// Owned batches only.
  void resize(std::size_t rows) {
    check_owned();
    m_ = rows;
    data_.resize(rows * d_);
  }

  /// Copies `v` into row i (dimension-checked).
  void set_row(std::size_t i, const Vector& v);

  /// Copy of row i as a standalone Vector.
  Vector row_copy(std::size_t i) const {
    return Vector(row(i), row(i) + d_);
  }

  /// Copies the batch out into the legacy VectorList representation.
  VectorList to_vectors() const;

 private:
  void check_owned() const {
    if (view_rows_ != nullptr) {
      throw std::logic_error(
          "GradientBatch: mutable/flat access on a borrowed view batch");
    }
  }

  std::size_t m_ = 0;
  std::size_t d_ = 0;
  std::vector<double> data_;  // m_ x d_, row-major (owned mode)
  const double* const* view_rows_ = nullptr;  // non-null = view mode
};

/// Arithmetic mean of a non-empty batch's rows, via one streaming column
/// reduction.  Each coordinate accumulates in row order, so the result is
/// bitwise identical to mean(VectorList) on the same values.
Vector mean(const GradientBatch& batch);

/// Mean of the selected rows, accumulated in `indices` order — bitwise
/// identical to mean() over the gathered VectorList.  Throws on an empty
/// selection.  Shared by the subset-averaging rules (Multi-Krum, MD-MEAN).
Vector mean_of_rows(const GradientBatch& batch,
                    const std::vector<std::size_t>& indices);

/// Borrowed view of the selected rows, in `indices` order: fills `table`
/// with their row pointers and returns a view over it, copying no row.
/// The subset input of Weiszfeld behind MD-GEOM, MD-GEOM-STICKY and the
/// index-set entry point of geometric_median.  `batch`'s rows and `table`
/// must outlive the view.
GradientBatch rows_view(const GradientBatch& batch,
                        const std::vector<std::size_t>& indices,
                        std::vector<const double*>& table);

}  // namespace bcl
