#include "ml/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace bcl::ml {

namespace {

// out_r[q] += sum_i a[r * arow + i * acol] * b[boff[i] + q] for R output
// rows r (`orow` apart) and the W columns q of one block, i ascending.
// Each accumulator starts from its output entry and adds its products one
// at a time in i order, the per-entry chain of a strict-order gemm.  The
// rows share every load of b, and consecutive q read consecutive b, so the
// block vectorizes across q without reassociating any sum.
template <std::size_t R, std::size_t W>
void chain_block(const double* a, std::size_t arow, std::size_t acol,
                 const double* b, const std::size_t* boff, std::size_t n,
                 double* out, std::size_t orow) {
  double acc[R][W];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < W; ++q) acc[r][q] = out[r * orow + q];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* bs = b + boff[i];
    for (std::size_t r = 0; r < R; ++r) {
      const double av = a[r * arow + i * acol];
      for (std::size_t q = 0; q < W; ++q) acc[r][q] += av * bs[q];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < W; ++q) out[r * orow + q] = acc[r][q];
  }
}

// chain_block over `rows` output rows of `width` columns: rows in pairs,
// columns in blocks of 8/4/2/1.
void chain(const double* a, std::size_t arow, std::size_t acol,
           const double* b, const std::size_t* boff, std::size_t n,
           double* out, std::size_t orow, std::size_t rows,
           std::size_t width) {
  const auto columns = [&]<std::size_t R>(std::size_t r) {
    const double* ar = a + r * arow;
    double* o = out + r * orow;
    std::size_t q = 0;
    for (; q + 8 <= width; q += 8) {
      chain_block<R, 8>(ar, arow, acol, b + q, boff, n, o + q, orow);
    }
    if (q + 4 <= width) {
      chain_block<R, 4>(ar, arow, acol, b + q, boff, n, o + q, orow);
      q += 4;
    }
    if (q + 2 <= width) {
      chain_block<R, 2>(ar, arow, acol, b + q, boff, n, o + q, orow);
      q += 2;
    }
    if (q < width) {
      chain_block<R, 1>(ar, arow, acol, b + q, boff, n, o + q, orow);
    }
  };
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) columns.template operator()<2>(r);
  if (r < rows) columns.template operator()<1>(r);
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t padding)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel_size),
      pad_(padding),
      weight_(out_channels * in_channels * kernel_size * kernel_size, 0.0),
      bias_(out_channels, 0.0),
      grad_weight_(weight_.size(), 0.0),
      grad_bias_(out_channels, 0.0) {
  if (in_c_ == 0 || out_c_ == 0 || k_ == 0) {
    throw std::invalid_argument("Conv2D: zero-sized layer");
  }
}

void Conv2D::initialize(Rng& rng) {
  // He-style fan-in scaling suits the following ReLU.
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double limit = std::sqrt(6.0 / fan_in);
  for (double& w : weight_) w = rng.uniform(-limit, limit);
  for (double& b : bias_) b = 0.0;
}

Tensor Conv2D::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2D::forward: expected [N, C_in, H, W]");
  }
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  if (h + 2 * pad_ < k_ || w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2D::forward: kernel larger than input");
  }
  const std::size_t hp = h + 2 * pad_;
  const std::size_t wp = w + 2 * pad_;
  const std::size_t out_h = hp - k_ + 1;
  const std::size_t out_w = wp - k_ + 1;
  const std::size_t sample = in_c_ * hp * wp;
  const std::size_t ckk = in_c_ * k_ * k_;

  input_shape_ = input.shape();
  offsets_.resize(ckk);
  for (std::size_t ic = 0; ic < in_c_; ++ic) {
    for (std::size_t kh = 0; kh < k_; ++kh) {
      for (std::size_t kw = 0; kw < k_; ++kw) {
        offsets_[(ic * k_ + kh) * k_ + kw] = (ic * hp + kh) * wp + kw;
      }
    }
  }
  padded_.assign(batch * sample, 0.0);
  for (std::size_t plane = 0; plane < batch * in_c_; ++plane) {
    const double* src = input.data() + plane * h * w;
    double* dst = padded_.data() + plane * hp * wp + pad_ * wp + pad_;
    for (std::size_t ih = 0; ih < h; ++ih) {
      std::copy(src + ih * w, src + (ih + 1) * w, dst + ih * wp);
    }
  }

  // out[oc][oh][.] = bias[oc] + sum_c W[oc][c] * x_pad[offsets[c] + oh*wp + .]
  Tensor output({batch, out_c_, out_h, out_w});
  const std::size_t npos = out_h * out_w;
  for (std::size_t n = 0; n < batch; ++n) {
    double* out = output.data() + n * out_c_ * npos;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::fill(out + oc * npos, out + (oc + 1) * npos, bias_[oc]);
    }
    const double* xs = padded_.data() + n * sample;
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      chain(weight_.data(), ckk, 1, xs + oh * wp, offsets_.data(), ckk,
            out + oh * out_w, npos, out_c_, out_w);
    }
  }
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  return accumulate_backward(grad_output, true);
}

void Conv2D::backward_params(const Tensor& grad_output) {
  accumulate_backward(grad_output, false);
}

Tensor Conv2D::accumulate_backward(const Tensor& grad_output,
                                   bool input_grad) {
  if (input_shape_.size() != 4) {
    throw std::logic_error("Conv2D::backward: no matching forward pass");
  }
  const std::size_t batch = input_shape_[0];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t hp = h + 2 * pad_;
  const std::size_t wp = w + 2 * pad_;
  const std::size_t out_h = hp - k_ + 1;
  const std::size_t out_w = wp - k_ + 1;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_c_ || grad_output.dim(2) != out_h ||
      grad_output.dim(3) != out_w) {
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
  }
  const std::size_t npos = out_h * out_w;
  const std::size_t ckk = in_c_ * k_ * k_;
  const std::size_t sample = in_c_ * hp * wp;

  // Patch rows and their gradients for one output row at a time: p still
  // ascends across rows, so the per-entry add order is the whole sample's.
  // The input gradient is scattered onto a padded sample, so every patch
  // entry lands in bounds; its border is dropped when the sample is
  // copied out.
  Tensor grad_input;
  if (input_grad) grad_input = Tensor(input_shape_);
  std::vector<double> patches(out_w * ckk);
  std::vector<double> grad_cols(input_grad ? out_w * ckk : 0);
  std::vector<double> grad_padded(input_grad ? sample : 0);
  // Row offsets of the patch and weight matrices, both ckk wide.
  std::vector<std::size_t> rows(std::max(out_w, out_c_));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i * ckk;
  for (std::size_t n = 0; n < batch; ++n) {
    const double* gy = grad_output.data() + n * out_c_ * npos;
    const double* xs = padded_.data() + n * sample;

    // grad_bias[oc] += sum over positions.
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      double s = 0.0;
      const double* row = gy + oc * npos;
      for (std::size_t p = 0; p < npos; ++p) s += row[p];
      grad_bias_[oc] += s;
    }

    std::fill(grad_padded.begin(), grad_padded.end(), 0.0);
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      const double* gy_row = gy + oh * out_w;
      for (std::size_t ow = 0; ow < out_w; ++ow) {
        double* prow = patches.data() + ow * ckk;
        const double* corner = xs + oh * wp + ow;
        for (std::size_t c = 0; c < ckk; ++c) prow[c] = corner[offsets_[c]];
      }
      // grad_W[oc][.] += gy[oc][p] * P[p][.] over this row's positions.
      chain(gy_row, npos, 1, patches.data(), rows.data(), out_w,
            grad_weight_.data(), ckk, out_c_, ckk);
      if (!input_grad) continue;

      // grad_P[p][.] = sum_oc gy[oc][p] * W[oc][.], from a zero fill, then
      // scatter-added onto the input positions each patch covers (col2im).
      std::fill(grad_cols.begin(), grad_cols.end(), 0.0);
      chain(gy_row, 1, npos, weight_.data(), rows.data(), out_c_,
            grad_cols.data(), ckk, out_w, ckk);
      for (std::size_t ow = 0; ow < out_w; ++ow) {
        const double* col = grad_cols.data() + ow * ckk;
        double* corner = grad_padded.data() + oh * wp + ow;
        for (std::size_t c = 0; c < ckk; ++c) corner[offsets_[c]] += col[c];
      }
    }
    if (!input_grad) continue;
    for (std::size_t ic = 0; ic < in_c_; ++ic) {
      const double* src = grad_padded.data() + (ic * hp + pad_) * wp + pad_;
      double* dst = grad_input.data() + (n * in_c_ + ic) * h * w;
      for (std::size_t ih = 0; ih < h; ++ih) {
        std::copy(src + ih * wp, src + ih * wp + w, dst + ih * w);
      }
    }
  }
  return grad_input;
}

void Conv2D::read_parameters(double* dst) const {
  std::memcpy(dst, weight_.data(), weight_.size() * sizeof(double));
  std::memcpy(dst + weight_.size(), bias_.data(), bias_.size() * sizeof(double));
}

void Conv2D::write_parameters(const double* src) {
  std::memcpy(weight_.data(), src, weight_.size() * sizeof(double));
  std::memcpy(bias_.data(), src + weight_.size(), bias_.size() * sizeof(double));
}

void Conv2D::read_gradients(double* dst) const {
  std::memcpy(dst, grad_weight_.data(), grad_weight_.size() * sizeof(double));
  std::memcpy(dst + grad_weight_.size(), grad_bias_.data(),
              grad_bias_.size() * sizeof(double));
}

void Conv2D::zero_gradients() {
  std::fill(grad_weight_.begin(), grad_weight_.end(), 0.0);
  std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0);
}

}  // namespace bcl::ml
