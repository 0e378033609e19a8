#pragma once
// 2-D convolution layer (stride 1, symmetric zero padding), the workhorse of
// the CifarNet architecture used for the Figure 2b experiment.
//
// Input [N, C_in, H, W], kernel [C_out, C_in, K, K], output
// [N, C_out, H_out, W_out] with H_out = H + 2*pad - K + 1.
//
// There are no execution modes.  forward() pads each sample once into a
// (H+2p) x (W+2p) plane per input channel (kept for backward) and computes
// every output row straight from that buffer: an output element starts
// from the bias and adds w[oc][ic][kh][kw] * x_pad[ic][oh+kh][ow+kw] for the
// C_in*K*K terms in (ic, kh, kw) order.  Each pass takes a block of
// consecutive outputs of one row for two output channels at once; the
// block keeps its accumulators in registers and reads consecutive inputs
// per term, so it vectorizes without reassociating any output's sum.
//
// backward() lowers one output row at a time from the padded buffer into
// patch rows P[p][(ic, kh, kw)] with no bounds tests, then
//   grad_W[oc][.] += gy[oc][p] * P[p][.]          (p ascending)
//   grad_P[p][.]   = sum_oc gy[oc][p] * W[oc][.]  (oc ascending, from 0)
// as unit-stride row updates, scatter-adds grad_P onto a padded copy of
// dLoss/dInput (col2im, p ascending; the border is dropped) and sums gy
// per channel into grad_bias.  backward_params() skips grad_P and col2im.
//
// Why the bits match the im2col lowering on a strict-order gemm
// (tests/conv2d_oracle.hpp): there, every output, grad_W and grad_P entry
// is one accumulator that starts from the bias, the running gradient or
// zero and adds its products one at a time in the same order, on the same
// operands; padding contributes the same w * 0.0 terms; and col2im adds
// each input position's contributions in ascending p.  Here every entry
// sees exactly that sequence of adds, so outputs, parameter gradients and
// input gradients are bitwise equal to the oracle's, which
// conv2d_oracle_test checks with memcmp.

#include "ml/layer.hpp"

namespace bcl::ml {

class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, std::size_t padding = 0);

  std::string name() const override { return "Conv2D"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;

  std::size_t parameter_count() const override {
    return out_c_ * in_c_ * k_ * k_ + out_c_;
  }
  void read_parameters(double* dst) const override;
  void write_parameters(const double* src) override;
  void read_gradients(double* dst) const override;
  void zero_gradients() override;
  void initialize(Rng& rng) override;

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel_size() const { return k_; }
  std::size_t padding() const { return pad_; }

 private:
  /// Checks grad_output against the last forward() and accumulates the
  /// parameter gradients; returns dLoss/dInput when `input_grad` is set,
  /// else an empty tensor.
  Tensor accumulate_backward(const Tensor& grad_output, bool input_grad);

  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t k_;
  std::size_t pad_;
  std::vector<double> weight_;       // [out_c, in_c, k, k]
  std::vector<double> bias_;         // [out_c]
  std::vector<double> grad_weight_;
  std::vector<double> grad_bias_;
  // Set by forward(): the input's shape, its zero-padded copy
  // [N, in_c, H + 2p, W + 2p], and the offset of term (ic, kh, kw) from an
  // output position's top-left input in one padded sample.
  std::vector<std::size_t> input_shape_;
  std::vector<double> padded_;
  std::vector<std::size_t> offsets_;
};

}  // namespace bcl::ml
