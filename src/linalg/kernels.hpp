#pragma once
// Blocked/unrolled BLAS-style micro-kernels over contiguous row-major
// buffers.
//
// Every hot loop in the stack — the Gram-matrix build behind the pairwise
// distance matrix, the coordinate-wise reductions, and the Dense layer's
// products — bottoms out in the same handful of kernels over flat double
// arrays.  The legacy loops iterated std::vector<std::vector> and
// accumulated through a single serial dependency chain, so the compiler
// could neither vectorize nor overlap the floating-point adds; these
// kernels work on contiguous memory, tile for cache reuse, and batch
// several independent accumulator chains so the FPU pipeline stays full.
//
// Determinism: the element-wise kernels (axpy, add_inplace, col_sum) add
// each output's terms in call / row order, so repeated calls accumulate
// exactly like the naive loops.  There is no gemm here: Conv2D runs its
// own register-blocked loops (ml/conv2d.cpp), and tests/conv2d_oracle.hpp
// keeps a strict-order gemm as their bitwise oracle.  The Gram kernels
// (gram_upper / gram_upper_columns) and dot_rows DO reassociate, into
// exactly two interleaved k-chains (even + odd indices, folded as
// (even + odd) + tail) that map onto one 2-lane SIMD accumulator per
// column.  The per-entry arithmetic depends
// only on that definition — never on the kernel width, the column
// blocking, or the thread that runs it — so serial and pool-parallel
// builds stay bitwise identical and bitwise-equal input rows produce
// bitwise-equal Gram entries.
//
#include <cstddef>
#include <cstdint>

namespace bcl::kernels {

/// Strictly sequential dot product: one accumulator, increasing index.
/// Bitwise identical to the naive `for (i) s += a[i]*b[i]` loop — the
/// reference the reassociating kernels are tested against.
double dot_seq(const double* a, const double* b, std::size_t n);

/// y += alpha * x over contiguous arrays (unrolled).
void axpy(double* y, double alpha, const double* x, std::size_t n);

/// y += x over contiguous arrays (unrolled; preserves per-element order, so
/// repeated calls accumulate each coordinate in call order).
void add_inplace(double* y, const double* x, std::size_t n);

/// y *= alpha over a contiguous array.
void scale_inplace(double* y, double alpha, std::size_t n);

/// Gram upper triangle: for 0 <= i <= j < m, C[i*m + j] += X_i . X_j with
/// X row-major (m x k).  Only the diagonal and the upper triangle of C are
/// written.  Uses the two-chain reassociated kernel (see the determinism
/// contract above), SIMD where available.
void gram_upper(const double* x, std::size_t m, std::size_t k, double* c);

/// Column slice of gram_upper: fills entries C[i*m + j] for
/// col0 <= j < col1, i <= j.  Slices with disjoint column ranges touch
/// disjoint outputs, which is the parallel work unit the Gram-trick
/// DistanceMatrix self-schedules across the ThreadPool.
void gram_upper_columns(const double* x, std::size_t m, std::size_t k,
                        double* c, std::size_t col0, std::size_t col1);

/// out[q] += a . b_q for `rows` consecutive rows of row-major B (each of
/// length k): the multi-row dot behind the Dense layer's products.  Uses
/// the same two-chain reassociated kernel as the Gram build (see the
/// determinism contract above), so results are reproducible but not
/// bitwise equal to a sequential dot.
void dot_rows(const double* a, const double* b, std::size_t rows,
              std::size_t k, double* out);

/// out[j] += sum_i X[i][j] for row-major X (m x k): a column reduction that
/// streams the batch row by row, so each out[j] accumulates in increasing-i
/// order (bitwise identical to the naive per-coordinate loop over rows).
void col_sum(const double* x, std::size_t m, std::size_t k, double* out);

// --- sparse-row kernels ----------------------------------------------------
//
// Compressed (top-k / rand-k) gradients are mostly zeros; these kernels let
// the Gram/distance path consume them in O(nnz) instead of densifying to
// O(d).  A sparse row is (idx, val, nnz) with idx strictly increasing.
// Accumulation order is increasing index, one sequential chain — the same
// value a dense dot over the scattered row would produce up to the usual
// reassociation tolerance (the sparse path serves the tolerance-checked
// distance consumers, not the bitwise gemm contract).

/// sum_j val[j] * dense[idx[j]]: sparse-dense dot in O(nnz), for callers
/// holding one contiguous dense buffer (e.g. scoring a compressed
/// gradient against a dense reference vector).  The all-sparse distance
/// build below uses the merge kernels instead.
double sparse_dot_dense(const std::uint32_t* idx, const double* val,
                        std::size_t nnz, const double* dense);

/// Dot of two sparse rows via an ordered merge in O(nnz_a + nnz_b): only
/// indices present in both contribute.
double sparse_dot_sparse(const std::uint32_t* ia, const double* va,
                         std::size_t na, const std::uint32_t* ib,
                         const double* vb, std::size_t nb);

/// ||a - b||^2 of two sparse rows via the same ordered merge (the
/// difference form — immune to the Gram identity's common-offset
/// cancellation, so it serves as the sparse path's cancellation-guard
/// recompute).
double sparse_diff_norm2(const std::uint32_t* ia, const double* va,
                         std::size_t na, const std::uint32_t* ib,
                         const double* vb, std::size_t nb);

/// One output row of the SpGEMM Gram build G = X * X^T over a CSR batch
/// and its CSC transpose: scatters acc[j] += x[i][k] * x[j][k] for every
/// coordinate k stored in row i and every row j >= i that also stores k
/// (found via the column's sorted row list, so rows j < i cost one binary
/// search, not a scan).  `idx`/`val`/`nnz` describe CSR row i;
/// `colptr`/`colrow`/`colval` are the transpose arenas
/// (SparseColumns::colptr()/row_ids()/values()).  `acc` is a caller-owned
/// dense scratch row (length m) whose entries [i, m) must be zero on
/// entry; on return acc[j] holds X_i . X_j for j >= i (still zero for
/// rows sharing no coordinate) and the caller restores the zeros.
///
/// Determinism: row i's indices are walked in increasing order, so each
/// acc[j] accumulates its common coordinates in increasing-k order with
/// the operand order val * colval — bitwise identical to the pairwise
/// sparse_dot_sparse merge of rows i and j (and on the diagonal, to the
/// self dot).  The replacement of the m^2/2 pairwise merges by this
/// kernel is therefore invisible to every tolerance- and bitwise-checked
/// consumer.  Cost: sum over k in row i of |{j in column k : j >= i}|,
/// i.e. O(nnz_i * avg column length) instead of O(sum_j (nnz_i + nnz_j)).
void spgemm_gram_row(const std::uint32_t* idx, const double* val,
                     std::size_t nnz, const std::size_t* colptr,
                     const std::uint32_t* colrow, const double* colval,
                     std::uint32_t i, double* acc);

}  // namespace bcl::kernels
