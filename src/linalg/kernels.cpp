#include "linalg/kernels.hpp"

#include <algorithm>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define BCL_KERNELS_SSE2 1
#else
#define BCL_KERNELS_SSE2 0
#endif

namespace bcl::kernels {

namespace {

// Register block width of the Gram kernels: number of X rows (output
// columns) accumulated per pass over k.  Eight independent accumulator
// chains are enough to cover the FP latency on current cores without
// spilling.
constexpr std::size_t kColBlock = 8;

// --- Gram micro-kernel ----------------------------------------------------
//
// The Gram build tolerates (documented) reassociation, so its kernel uses
// two interleaved k-chains per entry — even and odd k indices — which map
// onto one 2-lane SIMD accumulator per output column.  The per-entry
// arithmetic is fixed by this definition alone:
//
//     G_ij = (sum_{k even} a_k b_k + sum_{k odd} a_k b_k) + tail
//
// (tail = the last product when k is odd), and never depends on the kernel
// width W, on how columns are grouped into blocks, or on which thread runs
// the block.  Consequences: serial and pool-parallel builds are bitwise
// identical, and bitwise-equal rows produce bitwise-equal entries (the
// DistanceMatrix diagonal-norm trick then yields exactly zero distances).
// The scalar twin below replicates the lane arithmetic exactly, so builds
// agree bitwise across the SSE2 and fallback paths too.

#if BCL_KERNELS_SSE2
template <std::size_t W>
void gram_kernel(const double* arow, const double* const* brow, double* cvals,
                 std::size_t d) {
  __m128d acc[W];
  for (std::size_t q = 0; q < W; ++q) acc[q] = _mm_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 2 <= d; kk += 2) {
    const __m128d av = _mm_loadu_pd(arow + kk);
    for (std::size_t q = 0; q < W; ++q) {
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(av, _mm_loadu_pd(brow[q] + kk)));
    }
  }
  for (std::size_t q = 0; q < W; ++q) {
    double lanes[2];
    _mm_storeu_pd(lanes, acc[q]);
    double value = lanes[0] + lanes[1];
    if (kk < d) value += arow[kk] * brow[q][kk];
    cvals[q] += value;
  }
}
#else
template <std::size_t W>
void gram_kernel(const double* arow, const double* const* brow, double* cvals,
                 std::size_t d) {
  double even[W];
  double odd[W];
  for (std::size_t q = 0; q < W; ++q) even[q] = odd[q] = 0.0;
  std::size_t kk = 0;
  for (; kk + 2 <= d; kk += 2) {
    const double a0 = arow[kk];
    const double a1 = arow[kk + 1];
    for (std::size_t q = 0; q < W; ++q) {
      even[q] += a0 * brow[q][kk];
      odd[q] += a1 * brow[q][kk + 1];
    }
  }
  for (std::size_t q = 0; q < W; ++q) {
    double value = even[q] + odd[q];
    if (kk < d) value += arow[kk] * brow[q][kk];
    cvals[q] += value;
  }
}
#endif

// One A row against columns [j0, j1) of X, decomposed into 8/4/2/1 widths.
void gram_row_range(const double* arow, const double* x, std::size_t k,
                    double* crow, std::size_t j0, std::size_t j1) {
  const double* brow[kColBlock];
  std::size_t j = j0;
  for (; j + kColBlock <= j1; j += kColBlock) {
    for (std::size_t q = 0; q < kColBlock; ++q) brow[q] = x + (j + q) * k;
    gram_kernel<kColBlock>(arow, brow, crow + j, k);
  }
  if (j + 4 <= j1) {
    for (std::size_t q = 0; q < 4; ++q) brow[q] = x + (j + q) * k;
    gram_kernel<4>(arow, brow, crow + j, k);
    j += 4;
  }
  if (j + 2 <= j1) {
    for (std::size_t q = 0; q < 2; ++q) brow[q] = x + (j + q) * k;
    gram_kernel<2>(arow, brow, crow + j, k);
    j += 2;
  }
  if (j < j1) {
    brow[0] = x + j * k;
    gram_kernel<1>(arow, brow, crow + j, k);
  }
}

}  // namespace

double dot_seq(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void add_inplace(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void scale_inplace(double* y, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= alpha;
}

void gram_upper_columns(const double* x, std::size_t m, std::size_t k,
                        double* c, std::size_t col0, std::size_t col1) {
  std::size_t j0 = col0;
  while (j0 < col1) {
    const std::size_t jw = std::min(kColBlock, col1 - j0);
    // Full-width rows: every column j in [j0, j0 + jw) has j >= i.
    for (std::size_t i = 0; i < j0; ++i) {
      gram_row_range(x + i * k, x, k, c + i * m, j0, j0 + jw);
    }
    // Diagonal fringe: row i only takes columns j >= i.
    for (std::size_t i = j0; i < j0 + jw; ++i) {
      gram_row_range(x + i * k, x, k, c + i * m, i, j0 + jw);
    }
    j0 += jw;
  }
}

void gram_upper(const double* x, std::size_t m, std::size_t k, double* c) {
  gram_upper_columns(x, m, k, c, 0, m);
}

void dot_rows(const double* a, const double* b, std::size_t rows,
              std::size_t k, double* out) {
  gram_row_range(a, b, k, out, 0, rows);
}

void col_sum(const double* x, std::size_t m, std::size_t k, double* out) {
  for (std::size_t i = 0; i < m; ++i) add_inplace(out, x + i * k, k);
}

double sparse_dot_dense(const std::uint32_t* idx, const double* val,
                        std::size_t nnz, const double* dense) {
  double s = 0.0;
  for (std::size_t j = 0; j < nnz; ++j) s += val[j] * dense[idx[j]];
  return s;
}

double sparse_dot_sparse(const std::uint32_t* ia, const double* va,
                         std::size_t na, const std::uint32_t* ib,
                         const double* vb, std::size_t nb) {
  double s = 0.0;
  std::size_t a = 0, b = 0;
  while (a < na && b < nb) {
    if (ia[a] < ib[b]) {
      ++a;
    } else if (ib[b] < ia[a]) {
      ++b;
    } else {
      s += va[a] * vb[b];
      ++a;
      ++b;
    }
  }
  return s;
}

double sparse_diff_norm2(const std::uint32_t* ia, const double* va,
                         std::size_t na, const std::uint32_t* ib,
                         const double* vb, std::size_t nb) {
  double s = 0.0;
  std::size_t a = 0, b = 0;
  while (a < na && b < nb) {
    double d;
    if (ia[a] < ib[b]) {
      d = va[a++];
    } else if (ib[b] < ia[a]) {
      d = vb[b++];
    } else {
      d = va[a++] - vb[b++];
    }
    s += d * d;
  }
  for (; a < na; ++a) s += va[a] * va[a];
  for (; b < nb; ++b) s += vb[b] * vb[b];
  return s;
}

void spgemm_gram_row(const std::uint32_t* idx, const double* val,
                     std::size_t nnz, const std::size_t* colptr,
                     const std::uint32_t* colrow, const double* colval,
                     std::uint32_t i, double* acc) {
  for (std::size_t p = 0; p < nnz; ++p) {
    const std::uint32_t k = idx[p];
    const double v = val[p];
    const std::uint32_t* lo = colrow + colptr[k];
    const std::uint32_t* hi = colrow + colptr[k + 1];
    // Columns list rows in increasing order; skip the strictly-lower
    // triangle in one binary search (row i itself stays — it feeds the
    // diagonal / squared norm).
    const std::uint32_t* at = std::lower_bound(lo, hi, i);
    const double* cv = colval + (at - colrow);
    for (; at != hi; ++at, ++cv) acc[*at] += v * *cv;
  }
}

}  // namespace bcl::kernels
