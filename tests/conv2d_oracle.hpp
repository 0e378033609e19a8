#pragma once
// Differential oracle for ml::Conv2D: the im2col lowering on the strict-
// order gemm matmul_abt, and the direct six-deep loop nest beside it.
// Nothing in src/ calls either.  Conv2D computes its forward outputs,
// parameter gradients and input gradients with the same per-entry adds as
// the im2col path, and conv2d_oracle_test compares them bit for bit; the
// direct loops agree with im2col exactly on forward and to rounding on
// backward.
//
// ConvOracle holds a copy of a layer's parameters and its own gradient
// accumulators, laid out like Conv2D::read_parameters / read_gradients
// (weight [out_c, in_c, k, k], then bias [out_c]).

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "ml/conv2d.hpp"
#include "ml/tensor.hpp"

namespace bcl::test {

// --- strict-order gemm ------------------------------------------------------
//
// C += A * B^T for row-major A (ma x k), B (mb x k), C (ma x ldc, using the
// first mb columns of each row).  Each C entry is one accumulator seeded
// with the existing C value, products added in increasing k, so with a
// zero seed C[i][j] is bitwise equal to kernels::dot_seq(A_i, B_j).  The
// speed comes from running a register block of such chains at once (one
// per output column), never from reassociating a sum.

// cvals[q] += arow . brow_q for W consecutive B rows starting at b (each
// `bstride` apart), k in [k0, k1).
template <std::size_t W>
void abt_kernel(const double* arow, const double* b, std::size_t bstride,
                double* cvals, std::size_t k0, std::size_t k1) {
  const double* brow[W];
  for (std::size_t q = 0; q < W; ++q) brow[q] = b + q * bstride;
  double acc[W];
  for (std::size_t q = 0; q < W; ++q) acc[q] = cvals[q];
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const double av = arow[kk];
    for (std::size_t q = 0; q < W; ++q) acc[q] += av * brow[q][kk];
  }
  for (std::size_t q = 0; q < W; ++q) cvals[q] = acc[q];
}

// Width dispatch for one A row against B rows [j0, j1) over k in [k0, k1).
inline void abt_row_range(const double* arow, const double* b, std::size_t k,
                          double* crow, std::size_t j0, std::size_t j1,
                          std::size_t k0, std::size_t k1) {
  constexpr std::size_t kColBlock = 8;
  std::size_t j = j0;
  for (; j + kColBlock <= j1; j += kColBlock) {
    abt_kernel<kColBlock>(arow, b + j * k, k, crow + j, k0, k1);
  }
  if (j + 4 <= j1) {
    abt_kernel<4>(arow, b + j * k, k, crow + j, k0, k1);
    j += 4;
  }
  if (j + 2 <= j1) {
    abt_kernel<2>(arow, b + j * k, k, crow + j, k0, k1);
    j += 2;
  }
  if (j < j1) abt_kernel<1>(arow, b + j * k, k, crow + j, k0, k1);
}

inline void matmul_abt(const double* a, std::size_t ma, const double* b,
                       std::size_t mb, std::size_t k, double* c,
                       std::size_t ldc) {
  for (std::size_t i = 0; i < ma; ++i) {
    abt_row_range(a + i * k, b, k, c + i * ldc, 0, mb, 0, k);
  }
}

// --- the reference convolution ----------------------------------------------

struct ConvOracle {
  std::size_t in_c;
  std::size_t out_c;
  std::size_t k;
  std::size_t pad;
  std::vector<double> weight;  // [out_c, in_c, k, k]
  std::vector<double> bias;    // [out_c]
  std::vector<double> grad_weight;
  std::vector<double> grad_bias;

  ConvOracle(std::size_t in_channels, std::size_t out_channels,
             std::size_t kernel_size, std::size_t padding,
             const std::vector<double>& parameters)
      : in_c(in_channels),
        out_c(out_channels),
        k(kernel_size),
        pad(padding),
        weight(parameters.begin(),
               parameters.begin() +
                   static_cast<std::ptrdiff_t>(out_c * in_c * k * k)),
        bias(parameters.begin() +
                 static_cast<std::ptrdiff_t>(out_c * in_c * k * k),
             parameters.end()),
        grad_weight(weight.size(), 0.0),
        grad_bias(out_c, 0.0) {
    if (bias.size() != out_c) {
      throw std::invalid_argument("ConvOracle: parameter count mismatch");
    }
  }

  /// Parameter gradients in Conv2D::read_gradients layout.
  std::vector<double> gradients() const {
    std::vector<double> out(grad_weight);
    out.insert(out.end(), grad_bias.begin(), grad_bias.end());
    return out;
  }

  // --- im2col path ----------------------------------------------------------
  //
  // Forward lowers each sample to a patch matrix P [npos x ckk] (row p =
  // output position (oh, ow), column c = (ic, kh, kw), zero-filled where the
  // receptive field leaves the padded input) and computes the whole sample
  // as one gemm: out = bias + W * P^T with W [out_c x ckk].
  //
  // Backward rebuilds the patches transposed (Pt [ckk x npos]) and reuses
  // the same kernel for both products:
  //   grad_W   += GY * Pt^T            (GY [out_c x npos])
  //   grad_P    = GY^T * W             (via transposes, then col2im scatter)

  ml::Tensor forward_im2col(const ml::Tensor& input) const {
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h + 2 * pad - k + 1;
    const std::size_t out_w = w + 2 * pad - k + 1;
    const std::size_t npos = out_h * out_w;
    const std::size_t ckk = in_c * k * k;

    ml::Tensor output({batch, out_c, out_h, out_w});
    std::vector<double> patches(npos * ckk);
    for (std::size_t n = 0; n < batch; ++n) {
      std::fill(patches.begin(), patches.end(), 0.0);
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          double* patch = patches.data() + (oh * out_w + ow) * ckk;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            for (std::size_t kh = 0; kh < k; ++kh) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kw = 0; kw < k; ++kw) {
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(ow + kw) -
                    static_cast<std::ptrdiff_t>(pad);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
                patch[(ic * k + kh) * k + kw] =
                    input.at4(n, ic, static_cast<std::size_t>(ih),
                              static_cast<std::size_t>(iw));
              }
            }
          }
        }
      }
      double* out = output.data() + n * out_c * npos;
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        std::fill(out + oc * npos, out + (oc + 1) * npos, bias[oc]);
      }
      matmul_abt(weight.data(), out_c, patches.data(), npos, ckk, out, npos);
    }
    return output;
  }

  /// Accumulates parameter gradients; returns dLoss/dInput.
  ml::Tensor backward_im2col(const ml::Tensor& input,
                             const ml::Tensor& grad_output) {
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h + 2 * pad - k + 1;
    const std::size_t out_w = w + 2 * pad - k + 1;
    const std::size_t npos = out_h * out_w;
    const std::size_t ckk = in_c * k * k;

    std::vector<double> weight_t(ckk * out_c);
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t c = 0; c < ckk; ++c) {
        weight_t[c * out_c + oc] = weight[oc * ckk + c];
      }
    }

    ml::Tensor grad_input({batch, in_c, h, w});
    std::vector<double> patches_t(ckk * npos);
    std::vector<double> gy_t(npos * out_c);
    std::vector<double> grad_cols(npos * ckk);
    for (std::size_t n = 0; n < batch; ++n) {
      const double* gy = grad_output.data() + n * out_c * npos;

      for (std::size_t oc = 0; oc < out_c; ++oc) {
        double s = 0.0;
        const double* row = gy + oc * npos;
        for (std::size_t p = 0; p < npos; ++p) s += row[p];
        grad_bias[oc] += s;
      }

      std::fill(patches_t.begin(), patches_t.end(), 0.0);
      for (std::size_t ic = 0; ic < in_c; ++ic) {
        for (std::size_t kh = 0; kh < k; ++kh) {
          for (std::size_t kw = 0; kw < k; ++kw) {
            double* prow = patches_t.data() + ((ic * k + kh) * k + kw) * npos;
            for (std::size_t oh = 0; oh < out_h; ++oh) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t ow = 0; ow < out_w; ++ow) {
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(ow + kw) -
                    static_cast<std::ptrdiff_t>(pad);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
                prow[oh * out_w + ow] =
                    input.at4(n, ic, static_cast<std::size_t>(ih),
                              static_cast<std::size_t>(iw));
              }
            }
          }
        }
      }

      matmul_abt(gy, out_c, patches_t.data(), ckk, npos, grad_weight.data(),
                 ckk);

      for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t p = 0; p < npos; ++p) {
          gy_t[p * out_c + oc] = gy[oc * npos + p];
        }
      }
      std::fill(grad_cols.begin(), grad_cols.end(), 0.0);
      matmul_abt(gy_t.data(), npos, weight_t.data(), ckk, out_c,
                 grad_cols.data(), ckk);
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          const double* col = grad_cols.data() + (oh * out_w + ow) * ckk;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            for (std::size_t kh = 0; kh < k; ++kh) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kw = 0; kw < k; ++kw) {
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(ow + kw) -
                    static_cast<std::ptrdiff_t>(pad);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) continue;
                grad_input.at4(n, ic, static_cast<std::size_t>(ih),
                               static_cast<std::size_t>(iw)) +=
                    col[(ic * k + kh) * k + kw];
              }
            }
          }
        }
      }
    }
    return grad_input;
  }

  // --- direct loops ---------------------------------------------------------

  ml::Tensor forward_direct(const ml::Tensor& input) const {
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h + 2 * pad - k + 1;
    const std::size_t out_w = w + 2 * pad - k + 1;
    ml::Tensor output({batch, out_c, out_h, out_w});
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            double acc = bias[oc];
            for (std::size_t ic = 0; ic < in_c; ++ic) {
              for (std::size_t kh = 0; kh < k; ++kh) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(oh + kh) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kw = 0; kw < k; ++kw) {
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(ow + kw) -
                      static_cast<std::ptrdiff_t>(pad);
                  if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) {
                    continue;
                  }
                  acc += weight[((oc * in_c + ic) * k + kh) * k + kw] *
                         input.at4(n, ic, static_cast<std::size_t>(ih),
                                   static_cast<std::size_t>(iw));
                }
              }
            }
            output.at4(n, oc, oh, ow) = acc;
          }
        }
      }
    }
    return output;
  }

  /// Accumulates parameter gradients; returns dLoss/dInput.
  ml::Tensor backward_direct(const ml::Tensor& input,
                             const ml::Tensor& grad_output) {
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h + 2 * pad - k + 1;
    const std::size_t out_w = w + 2 * pad - k + 1;
    ml::Tensor grad_input({batch, in_c, h, w});
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const double gy = grad_output.at4(n, oc, oh, ow);
            if (gy == 0.0) continue;
            grad_bias[oc] += gy;
            for (std::size_t ic = 0; ic < in_c; ++ic) {
              for (std::size_t kh = 0; kh < k; ++kh) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(oh + kh) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kw = 0; kw < k; ++kw) {
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(ow + kw) -
                      static_cast<std::ptrdiff_t>(pad);
                  if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(w)) {
                    continue;
                  }
                  const std::size_t widx =
                      ((oc * in_c + ic) * k + kh) * k + kw;
                  grad_weight[widx] +=
                      gy * input.at4(n, ic, static_cast<std::size_t>(ih),
                                     static_cast<std::size_t>(iw));
                  grad_input.at4(n, ic, static_cast<std::size_t>(ih),
                                 static_cast<std::size_t>(iw)) +=
                      gy * weight[widx];
                }
              }
            }
          }
        }
      }
    }
    return grad_input;
  }
};

/// An oracle with `conv`'s shape and current parameters.
inline ConvOracle oracle_of(const ml::Conv2D& conv) {
  std::vector<double> parameters(conv.parameter_count());
  conv.read_parameters(parameters.data());
  return ConvOracle(conv.in_channels(), conv.out_channels(),
                    conv.kernel_size(), conv.padding(), parameters);
}

}  // namespace bcl::test
