#include "ml/dense.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/kernels.hpp"

namespace bcl::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0),
      bias_(out_features, 0.0),
      grad_weight_(in_features * out_features, 0.0),
      grad_bias_(out_features, 0.0) {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
}

void Dense::initialize(Rng& rng) {
  // Glorot / Xavier uniform: U(-limit, limit) with limit = sqrt(6/(in+out)).
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (double& w : weight_) w = rng.uniform(-limit, limit);
  for (double& b : bias_) b = 0.0;
  weight_t_valid_ = false;
}

Tensor Dense::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [N, in] input");
  }
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  Tensor output({batch, out_});
  // y = b + x W: each y[n][o] is bias plus one dot against W^T row o; the
  // cached transpose makes the weight rows contiguous for the multi-row
  // dot kernel.
  if (!weight_t_valid_) {
    weight_t_.resize(out_ * in_);
    for (std::size_t i = 0; i < in_; ++i) {
      for (std::size_t o = 0; o < out_; ++o) {
        weight_t_[o * in_ + i] = weight_[i * out_ + o];
      }
    }
    weight_t_valid_ = true;
  }
  for (std::size_t n = 0; n < batch; ++n) {
    double* y = output.data() + n * out_;
    for (std::size_t o = 0; o < out_; ++o) y[o] = bias_[o];
  }
  // Output-row blocks outer, samples inner: a block of W^T rows stays
  // cache-resident while the whole batch sweeps it, so the weights stream
  // from memory once per batch instead of once per sample.
  constexpr std::size_t kOutBlock = 8;
  for (std::size_t o0 = 0; o0 < out_; o0 += kOutBlock) {
    const std::size_t ow = std::min(kOutBlock, out_ - o0);
    const double* wt = weight_t_.data() + o0 * in_;
    for (std::size_t n = 0; n < batch; ++n) {
      kernels::dot_rows(input.data() + n * in_, wt, ow, in_,
                        output.data() + n * out_ + o0);
    }
  }
  return output;
}

Tensor Dense::backward(const Tensor& grad_output) {
  return accumulate_backward(grad_output, true);
}

void Dense::backward_params(const Tensor& grad_output) {
  accumulate_backward(grad_output, false);
}

Tensor Dense::accumulate_backward(const Tensor& grad_output,
                                  bool input_grad) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: expected [N, out] grad");
  }
  const std::size_t batch = grad_output.dim(0);
  if (cached_input_.size() != batch * in_) {
    throw std::logic_error("Dense::backward: no matching forward pass");
  }
  // grad_bias += column sums of gy (ascending batch index per output,
  // exactly the legacy order).
  kernels::col_sum(grad_output.data(), batch, out_, grad_bias_.data());

  // Same blocking as forward: weight rows (and grad-weight rows) stay
  // cache-resident while the batch sweeps them.
  Tensor grad_input;
  if (input_grad) grad_input = Tensor({batch, in_});
  constexpr std::size_t kInBlock = 8;
  for (std::size_t i0 = 0; i0 < in_; i0 += kInBlock) {
    const std::size_t iw = std::min(kInBlock, in_ - i0);
    for (std::size_t n = 0; input_grad && n < batch; ++n) {
      // gx[n][i] = gy[n] . W_i: the stored [in, out] rows are already
      // contiguous for the multi-row dot kernel.
      kernels::dot_rows(grad_output.data() + n * out_,
                        weight_.data() + i0 * out_, iw, out_,
                        grad_input.data() + n * in_ + i0);
    }
    // gW_i += x[n][i] * gy[n]: outer product, ascending n per entry —
    // exactly the legacy accumulation order.
    for (std::size_t i = i0; i < i0 + iw; ++i) {
      double* gw = grad_weight_.data() + i * out_;
      for (std::size_t n = 0; n < batch; ++n) {
        kernels::axpy(gw, cached_input_.data()[n * in_ + i],
                      grad_output.data() + n * out_, out_);
      }
    }
  }
  return grad_input;
}

void Dense::read_parameters(double* dst) const {
  std::memcpy(dst, weight_.data(), weight_.size() * sizeof(double));
  std::memcpy(dst + weight_.size(), bias_.data(), bias_.size() * sizeof(double));
}

void Dense::write_parameters(const double* src) {
  std::memcpy(weight_.data(), src, weight_.size() * sizeof(double));
  std::memcpy(bias_.data(), src + weight_.size(), bias_.size() * sizeof(double));
  weight_t_valid_ = false;
}

void Dense::read_gradients(double* dst) const {
  std::memcpy(dst, grad_weight_.data(), grad_weight_.size() * sizeof(double));
  std::memcpy(dst + grad_weight_.size(), grad_bias_.data(),
              grad_bias_.size() * sizeof(double));
}

void Dense::zero_gradients() {
  std::fill(grad_weight_.begin(), grad_weight_.end(), 0.0);
  std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0);
}

}  // namespace bcl::ml
