#pragma once
// Fully connected layer: y = x W + b, with x [N, in], W [in, out], b [out].
//
// The dot-shaped products (forward activations and grad-input) run on the
// shared two-chain SIMD kernel (kernels::dot_rows, the same arithmetic as
// the Gram-trick distance build): deterministic and reproducible, agreeing
// with the historical per-row loops to rounding (exactly on
// exactly-representable inputs).  The outer-product updates (grad-weight,
// grad-bias) keep the historical accumulation order via kernels::axpy /
// col_sum and are bitwise identical; backward_params() skips the
// grad-input products and leaves them unchanged.  The parameter layout
// (row-major [in, out] plus bias) is unchanged, so checkpoints round-trip.

#include "ml/layer.hpp"

namespace bcl::ml {

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  std::string name() const override { return "Dense"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;

  std::size_t parameter_count() const override {
    return in_ * out_ + out_;
  }
  void read_parameters(double* dst) const override;
  void write_parameters(const double* src) override;
  void read_gradients(double* dst) const override;
  void zero_gradients() override;

  /// Glorot-uniform weights, zero bias.
  void initialize(Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  /// Checks grad_output against the last forward() and accumulates the
  /// parameter gradients; returns dLoss/dInput when `input_grad` is set,
  /// else an empty tensor.
  Tensor accumulate_backward(const Tensor& grad_output, bool input_grad);

  std::size_t in_;
  std::size_t out_;
  std::vector<double> weight_;       // [in, out], row-major
  std::vector<double> bias_;         // [out]
  std::vector<double> grad_weight_;  // accumulated over the batch
  std::vector<double> grad_bias_;
  Tensor cached_input_;
  // W^T [out, in], rebuilt lazily after a weight mutation so forward's
  // contiguous row sweeps do not pay a transpose per call.
  std::vector<double> weight_t_;
  bool weight_t_valid_ = false;
};

}  // namespace bcl::ml
