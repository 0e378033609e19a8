#include "linalg/distance_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/thread_pool.hpp"

namespace bcl {

namespace {

// Parallel work unit for the Gram build: one packed column block of G's
// upper triangle (kernels::gram_upper_columns).  Column block j costs ~j
// row sweeps — exactly the imbalanced triangular shape the dynamic
// schedule exists for.
constexpr std::size_t kGramColBlock = 8;

// ||a - b||^2 over contiguous rows with two interleaved chains (keeps the
// FP pipeline full); the difference form subtracts coordinates first, so
// it is immune to the common-offset cancellation of the Gram identity.
// Serves both the offset-vs-spread check and the cancellation-guard
// recompute below.
double diff_norm2(const double* a, const double* b, std::size_t d) {
  double s0 = 0.0, s1 = 0.0;
  std::size_t k = 0;
  for (; k + 2 <= d; k += 2) {
    const double d0 = a[k] - b[k];
    const double d1 = a[k + 1] - b[k + 1];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  if (k < d) {
    const double d0 = a[k] - b[k];
    s0 += d0 * d0;
  }
  return s0 + s1;
}

}  // namespace

DistanceMatrix::DistanceMatrix(const VectorList& points, ThreadPool* pool)
    : m_(points.size()) {
  check_same_dimension(points);
  d2_.assign(m_ * m_, 0.0);
  if (m_ < 2) return;
  // Row i fills entries (i, j) and (j, i) for j > i, so every pair is
  // written by exactly one task and the parallel build is race-free.
  auto fill_row = [&](std::size_t i) {
    for (std::size_t j = i + 1; j < m_; ++j) {
      const double s = distance_squared(points[i], points[j]);
      d2_[i * m_ + j] = d2_[j * m_ + i] = s;
    }
  };
  if (pool != nullptr && m_ > 2) {
    // Dynamic schedule: row i costs (m - 1 - i) pair evaluations, so a
    // static slab assignment leaves the worker holding the first rows with
    // ~m/2 times the work of the last one.
    pool->parallel_for_dynamic(0, m_ - 1, fill_row);
  } else {
    for (std::size_t i = 0; i + 1 < m_; ++i) fill_row(i);
  }
}

DistanceMatrix::DistanceMatrix(const GradientBatch& batch, ThreadPool* pool) {
  const std::size_t m = batch.rows();
  const std::size_t d = batch.dim();
  if (batch.contiguous()) {
    *this = DistanceMatrix(batch.data(), m, d, pool);
    return;
  }
  // A borrowed view (arena payload spans, a trainer's table of live rows)
  // has no flat buffer: gather its rows once into a buffer owned by this
  // build.  One O(m * d) copy beside the O(m^2 * d) Gram; it must not be
  // per-thread scratch, because while this thread waits on the pool in
  // the build it help-drains the shared queue and may run another build.
  std::vector<double> gathered;
  gathered.reserve(m * d);
  for (std::size_t i = 0; i < m; ++i) {
    gathered.insert(gathered.end(), batch.row(i), batch.row(i) + d);
  }
  *this = DistanceMatrix(gathered.data(), m, d, pool);
}

DistanceMatrix::DistanceMatrix(const double* rows, std::size_t m,
                               std::size_t d, ThreadPool* pool)
    : m_(m) {
  d2_.assign(m_ * m_, 0.0);
  if (m_ < 2) return;

  // The Gram identity ni + nj - 2*Gij cancels catastrophically when the
  // points share a large common offset (tightly clustered gradients late
  // in training are exactly that regime — G entries ~ ||offset||^2 with
  // ulp error dwarfing the true squared distance).  Distances are
  // translation-invariant, so when one cheap streaming pass detects that
  // the offset dominates the spread, the rows are re-based against row 0
  // before the product: the Gram entries then scale with the spread
  // itself, and for coordinates within a factor of two of the reference
  // the subtraction is exact (Sterbenz), so near-duplicates keep full
  // precision.  Well-spread data (the common case) skips the copy
  // entirely.  Bitwise-equal rows stay bitwise equal either way, and the
  // deterministic check keeps serial and parallel builds identical.
  std::vector<double> centered;
  {
    const double offset2 = kernels::dot_seq(rows, rows, d);
    double spread2_max = 0.0;
    for (std::size_t i = 1; i < m_; ++i) {
      spread2_max = std::max(spread2_max, diff_norm2(rows + i * d, rows, d));
    }
    constexpr double kOffsetDominates = 1.0e4;
    if (offset2 > kOffsetDominates * spread2_max) {
      centered.resize(m_ * d);
      for (std::size_t i = 0; i < m_; ++i) {
        const double* src = rows + i * d;
        double* dst = centered.data() + i * d;
        for (std::size_t k = 0; k < d; ++k) dst[k] = src[k] - rows[k];
      }
      rows = centered.data();
    }
  }

  // Upper-triangular Gram matrix G = X * X^T via the column-block kernel.
  // Column blocks write disjoint output ranges and the kernel's per-entry
  // arithmetic is independent of blocking and scheduling, so the
  // self-scheduled parallel build is race-free and bitwise identical to
  // the serial one.
  std::vector<double> gram(m_ * m_, 0.0);
  const std::size_t blocks = (m_ + kGramColBlock - 1) / kGramColBlock;
  auto fill_block = [&](std::size_t b) {
    const std::size_t col0 = b * kGramColBlock;
    const std::size_t col1 = std::min(m_, col0 + kGramColBlock);
    kernels::gram_upper_columns(rows, m_, d, gram.data(), col0, col1);
  };
  if (pool != nullptr && blocks > 1) {
    pool->parallel_for_dynamic(0, blocks, fill_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) fill_block(b);
  }

  // ||x_i - x_j||^2 = G_ii + G_jj - 2 G_ij.  Norms come off the Gram
  // diagonal (same kernel, same summation order), so bitwise-equal rows get
  // exactly zero; rounding can still drive near-zero results slightly
  // negative, which the clamp removes before any sqrt.
  //
  // Cancellation guard: the identity's absolute error is ~ulp(ni + nj), so
  // a result far smaller than the norms has lost most of its digits —
  // e.g. a tight cluster whose rebase was suppressed because one Byzantine
  // outlier sat at row 0 or dominated the spread estimate.  Such pairs are
  // recomputed from the (possibly re-based) rows directly; the difference
  // form subtracts coordinates first, which is immune to the common-offset
  // cancellation.  Benign geometries trigger no recomputes; a fully
  // clustered inbox with a suppressed rebase degrades to the per-pair cost
  // for its tiny pairs but never to garbage selections.
  constexpr double kCancelGuard = 1.0e-6;
  for (std::size_t i = 0; i < m_; ++i) {
    const double ni = gram[i * m_ + i];
    for (std::size_t j = i + 1; j < m_; ++j) {
      const double nj = gram[j * m_ + j];
      double s = std::max(0.0, ni + nj - 2.0 * gram[i * m_ + j]);
      if (s < kCancelGuard * (ni + nj)) {
        s = diff_norm2(rows + i * d, rows + j * d, d);
      }
      d2_[i * m_ + j] = d2_[j * m_ + i] = s;
    }
  }
}

DistanceMatrix::DistanceMatrix(const SparseRows& rows, ThreadPool* pool)
    : m_(rows.rows()) {
  d2_.assign(m_ * m_, 0.0);
  if (m_ < 2) return;

  // Self dots off the "diagonal" first (each row's squared norm: the same
  // increasing-index chain the SpGEMM diagonal would produce, kept as a
  // cheap O(nnz) upfront pass because row i's Gram pass needs norms[j] of
  // rows j > i it has not visited yet).
  std::vector<double> norms(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    norms[i] = kernels::sparse_dot_sparse(
        rows.row_indices(i), rows.row_values(i), rows.row_nnz(i),
        rows.row_indices(i), rows.row_values(i), rows.row_nnz(i));
  }

  // Row-merge SpGEMM: one CSC transpose up front, then each output row i
  // scatters its Gram entries G_ij (j >= i) through the columns of row i's
  // stored coordinates.  Cost per row is nnz_i * (average column length)
  // — zeros never meet — versus the pairwise merge's sum_j (nnz_i +
  // nnz_j), which re-walks both rows for every pair whether or not they
  // share a coordinate.  Each accumulator receives its common coordinates
  // in increasing-k order, so every G entry is bitwise identical to the
  // sparse_dot_sparse merge it replaces.  Row i writes entries (i, j) and
  // (j, i) for j > i, so the parallel build is race-free; the triangular
  // row loop is the imbalanced shape the dynamic schedule handles.
  const SparseColumns cols(rows);
  constexpr double kCancelGuard = 1.0e-6;
  auto fill_row = [&](std::size_t i) {
    // Per-worker dense scratch row for the sparse accumulator, zeroed on
    // first use and re-zeroed behind every row, so reuse across rows (and
    // DistanceMatrix builds) on the same worker is clean.
    static thread_local std::vector<double> acc;
    if (acc.size() < m_) acc.assign(m_, 0.0);
    kernels::spgemm_gram_row(rows.row_indices(i), rows.row_values(i),
                             rows.row_nnz(i), cols.colptr(), cols.row_ids(),
                             cols.values(), static_cast<std::uint32_t>(i),
                             acc.data());
    const std::uint32_t* ia = rows.row_indices(i);
    const double* va = rows.row_values(i);
    const std::size_t na = rows.row_nnz(i);
    for (std::size_t j = i + 1; j < m_; ++j) {
      const double g = acc[j];
      acc[j] = 0.0;
      double s = std::max(0.0, norms[i] + norms[j] - 2.0 * g);
      // Same cancellation guard as the dense Gram path: a result far
      // smaller than the norms has lost most of its digits to the
      // identity's subtraction, so recompute through the difference form.
      if (s < kCancelGuard * (norms[i] + norms[j])) {
        s = kernels::sparse_diff_norm2(ia, va, na, rows.row_indices(j),
                                       rows.row_values(j), rows.row_nnz(j));
      }
      d2_[i * m_ + j] = d2_[j * m_ + i] = s;
    }
    acc[i] = 0.0;  // diagonal entry: norms[] already holds it
  };
  if (pool != nullptr && m_ > 2) {
    pool->parallel_for_dynamic(0, m_ - 1, fill_row);
  } else {
    for (std::size_t i = 0; i + 1 < m_; ++i) fill_row(i);
  }
}

double DistanceMatrix::row_sum(std::size_t i) const {
  double s = 0.0;
  const double* row = d2_.data() + i * m_;
  for (std::size_t j = 0; j < m_; ++j) s += std::sqrt(row[j]);
  return s;
}

double DistanceMatrix::diameter() const {
  // Maximize over the squared entries and take one sqrt at the end, exactly
  // as bcl::diameter() does, so the two agree bitwise.
  double best = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = i + 1; j < m_; ++j) {
      best = std::max(best, d2_[i * m_ + j]);
    }
  }
  return std::sqrt(best);
}

double DistanceMatrix::subset_diameter(
    const std::vector<std::size_t>& indices) const {
  double best = 0.0;
  for (std::size_t a = 0; a < indices.size(); ++a) {
    for (std::size_t b = a + 1; b < indices.size(); ++b) {
      best = std::max(best, d2_[indices[a] * m_ + indices[b]]);
    }
  }
  return std::sqrt(best);
}

}  // namespace bcl
