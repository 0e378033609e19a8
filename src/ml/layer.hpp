#pragma once
// Layer interface of the sequential neural-network substrate.
//
// Layers own their parameters and per-batch gradient accumulators, exposed
// through a flat read/write interface so the whole model's parameters and
// gradients can be (de)serialized into the single flat vectors the
// aggregation rules operate on.

#include <cstddef>
#include <string>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace bcl::ml {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Forward pass.  Layers cache whatever they need for backward();
  /// forward()/backward() pairs must not interleave across batches.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: receives dLoss/dOutput, accumulates parameter
  /// gradients, returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() without dLoss/dInput, for the first layer with parameters,
  /// whose input gradient nobody reads.  Accumulates the same parameter
  /// gradients, bit for bit, after the same shape checks.  The default
  /// calls backward(); layers whose input gradient costs real work skip it.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Number of trainable scalars (0 for activations / pooling).
  virtual std::size_t parameter_count() const { return 0; }

  /// Copies parameters into dst[0..parameter_count()).
  virtual void read_parameters(double* dst) const { (void)dst; }

  /// Overwrites parameters from src[0..parameter_count()).
  virtual void write_parameters(const double* src) { (void)src; }

  /// Copies accumulated gradients into dst[0..parameter_count()).
  virtual void read_gradients(double* dst) const { (void)dst; }

  /// Clears the gradient accumulators.
  virtual void zero_gradients() {}

  /// Re-initializes parameters (layers with none ignore this).
  virtual void initialize(Rng& rng) { (void)rng; }
};

}  // namespace bcl::ml
