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

// --- Weiszfeld's coordinate passes ------------------------------------------
//
// A row's squared distance is one add chain in coordinate order, so a
// single row leaves the FPU waiting on add latency at every k.  The
// distance pass advances kDistanceRows chains together instead; each chain
// still runs the scalar sequence `diff = row[k] - y[k]; s += diff * diff`
// from 0.0, so the sums are the naive loop's bit for bit.

// Rows per distance sweep.  Four chains in two 2-lane accumulators hide
// most of the add latency: at s = 8, d = 1842 the pass takes 5.0-6.9 us
// against 10.7-11.0 us one row at a time (4-vCPU x86-64 VM, -O3 SSE2).
// Eight rows in four accumulators ran the kernel alone in 4.7-5.3 us but
// did not move a whole asynchronous agreement cell (medians of 20 runs
// within 2% either way on three seeds), so the smaller kernel stays.
constexpr std::size_t kDistanceRows = 4;

// Coordinates per update block.  Sixteen numerator chains fill eight
// 2-lane registers, enough independent adds to cover the add latency with
// the weight and a load still in registers; each row's block is two cache
// lines read once.  The naive sequence (axpy of every row into a zeroed
// numerator, then the quotient and the step) takes 12.4-12.9 us at
// s = 8, d = 1842, the blocked pass 4.3-5.2 us.  The step sum stays one
// chain in coordinate order either way.
constexpr std::size_t kQuotientBlock = 16;

#if BCL_KERNELS_SSE2
// Lane 0 of acc01 is row 0 and lane 1 row 1; acc23 holds rows 2 and 3.
static_assert(kDistanceRows == 4, "the SSE2 sweep holds four rows");
void squared_distances4(const double* const* rows, const double* y,
                        std::size_t d, double* out) {
  const double* r0 = rows[0];
  const double* r1 = rows[1];
  const double* r2 = rows[2];
  const double* r3 = rows[3];
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  for (std::size_t k = 0; k < d; ++k) {
    const __m128d yk = _mm_set1_pd(y[k]);
    const __m128d d01 = _mm_sub_pd(_mm_set_pd(r1[k], r0[k]), yk);
    const __m128d d23 = _mm_sub_pd(_mm_set_pd(r3[k], r2[k]), yk);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
  }
  _mm_storeu_pd(out, acc01);
  _mm_storeu_pd(out + 2, acc23);
}
#else
void squared_distances4(const double* const* rows, const double* y,
                        std::size_t d, double* out) {
  double sum[kDistanceRows] = {};
  for (std::size_t k = 0; k < d; ++k) {
    const double yk = y[k];
    for (std::size_t q = 0; q < kDistanceRows; ++q) {
      const double diff = rows[q][k] - yk;
      sum[q] += diff * diff;
    }
  }
  for (std::size_t q = 0; q < kDistanceRows; ++q) out[q] = sum[q];
}
#endif

// The numerators of coordinates [k0, k0 + W) into a[0, W): a[c] starts at
// 0.0 and adds weights[i] * rows[i][k0 + c] in increasing i.
template <std::size_t W>
void numerators(const double* const* rows, const double* weights,
                std::size_t s, std::size_t k0, double* a) {
  for (std::size_t c = 0; c < W; ++c) a[c] = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    const double w = weights[i];
    const double* row = rows[i] + k0;
    for (std::size_t c = 0; c < W; ++c) a[c] += w * row[c];
  }
}

#if BCL_KERNELS_SSE2
// A full block in kQuotientBlock / 2 two-lane registers, each lane one
// coordinate's chain: the scalar twin above, vectorized across coordinates
// (left to itself, the compiler pairs rows instead and spills the chains).
template <>
void numerators<kQuotientBlock>(const double* const* rows,
                                const double* weights, std::size_t s,
                                std::size_t k0, double* a) {
  constexpr std::size_t kPairs = kQuotientBlock / 2;
  __m128d acc[kPairs];
  for (std::size_t q = 0; q < kPairs; ++q) acc[q] = _mm_setzero_pd();
  for (std::size_t i = 0; i < s; ++i) {
    const __m128d w = _mm_set1_pd(weights[i]);
    const double* row = rows[i] + k0;
    for (std::size_t q = 0; q < kPairs; ++q) {
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(w, _mm_loadu_pd(row + 2 * q)));
    }
  }
  for (std::size_t q = 0; q < kPairs; ++q) _mm_storeu_pd(a + 2 * q, acc[q]);
}
#endif

// Coordinates [k0, k0 + W) of weighted_quotient: the numerators, then the
// quotients, then the step terms in coordinate order.
template <std::size_t W>
void quotient_block(const double* const* rows, const double* weights,
                    std::size_t s, double inverse, const double* y,
                    std::size_t k0, double* out, double& step2) {
  double a[W];
  numerators<W>(rows, weights, s, k0, a);
  for (std::size_t c = 0; c < W; ++c) out[k0 + c] = inverse * a[c];
  for (std::size_t c = 0; c < W; ++c) {
    const double diff = out[k0 + c] - y[k0 + c];
    step2 += diff * diff;
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

void squared_distances(const double* const* rows, std::size_t s,
                       const double* y, std::size_t d, double* out) {
  std::size_t i = 0;
  for (; i + kDistanceRows <= s; i += kDistanceRows) {
    squared_distances4(rows + i, y, d, out + i);
  }
  for (; i < s; ++i) {
    const double* row = rows[i];
    double sum = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = row[k] - y[k];
      sum += diff * diff;
    }
    out[i] = sum;
  }
}

double weighted_quotient(const double* const* rows, const double* weights,
                         std::size_t s, double denominator, const double* y,
                         std::size_t d, double* out) {
  const double inverse = 1.0 / denominator;
  double step2 = 0.0;
  std::size_t k0 = 0;
  for (; k0 + kQuotientBlock <= d; k0 += kQuotientBlock) {
    quotient_block<kQuotientBlock>(rows, weights, s, inverse, y, k0, out,
                                   step2);
  }
  for (; k0 < d; ++k0) {
    quotient_block<1>(rows, weights, s, inverse, y, k0, out, step2);
  }
  return step2;
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
