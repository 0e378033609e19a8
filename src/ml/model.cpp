#include "ml/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace bcl::ml {

Model& Model::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Model::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

void Model::initialize(Rng& rng) {
  for (auto& layer : layers_) layer->initialize(rng);
}

Vector Model::parameters() const {
  Vector theta(parameter_count());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->read_parameters(theta.data() + offset);
    offset += layer->parameter_count();
  }
  return theta;
}

void Model::set_parameters(const Vector& theta) {
  if (theta.size() != parameter_count()) {
    throw std::invalid_argument("Model::set_parameters: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    layer->write_parameters(theta.data() + offset);
    offset += layer->parameter_count();
  }
}

Vector Model::gradients() const {
  Vector grad(parameter_count());
  read_gradients(grad.data());
  return grad;
}

void Model::read_gradients(double* dst) const {
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->read_gradients(dst + offset);
    offset += layer->parameter_count();
  }
}

void Model::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

Tensor Model::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

void Model::backward(const Tensor& grad_output) {
  const auto first = std::find_if(
      layers_.begin(), layers_.end(),
      [](const auto& layer) { return layer->parameter_count() > 0; });
  if (first == layers_.end()) return;
  Tensor g = grad_output;
  for (auto it = layers_.end() - 1; it != first; --it) g = (*it)->backward(g);
  (*first)->backward_params(g);
}

double Model::compute_loss_and_gradient(
    const Tensor& batch, const std::vector<std::uint8_t>& labels) {
  zero_gradients();
  const Tensor logits = forward(batch);
  LossResult loss = softmax_cross_entropy(logits, labels);
  backward(loss.grad_logits);
  return loss.loss;
}

double Model::compute_loss(const Tensor& batch,
                           const std::vector<std::uint8_t>& labels) {
  const Tensor logits = forward(batch);
  return softmax_cross_entropy(logits, labels).loss;
}

std::size_t Model::correct_predictions(
    const Tensor& batch, const std::vector<std::uint8_t>& labels) {
  const auto predictions = argmax_rows(forward(batch));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return correct;
}

double Model::accuracy(const Tensor& batch,
                       const std::vector<std::uint8_t>& labels) {
  const std::size_t correct = correct_predictions(batch, labels);
  const std::size_t rows = batch.dim(0);
  return rows == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(rows);
}

}  // namespace bcl::ml
