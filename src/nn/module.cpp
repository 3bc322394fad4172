#include "nn/module.hpp"

#include "util/check.hpp"
#include "util/error.hpp"

namespace fhdnn::nn {

std::int64_t Module::parameter_count() {
  std::int64_t n = 0;
  for (const Parameter* p : parameters()) n += p->value.numel();
  return n;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

const Tensor& Module::no_input_grad() {
  static const Tensor placeholder;
  return placeholder;
}

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  FHDNN_CHECK(layer != nullptr, "Sequential::add(nullptr)");
  if (layers_.empty()) layer->set_input_grad_needed(input_grad_needed_);
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  // Chain by reference — each layer reads its predecessor's output buffer
  // directly, so the container adds no copies or allocations.
  const Tensor* h = &x;
  for (auto& layer : layers_) h = &layer->forward(*h);
  return *h;
}

const Tensor& Sequential::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  const Tensor* g = &grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &(*it)->backward(*g);
  }
  return *g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* b : layer->buffers()) out.push_back(b);
  }
  return out;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& layer : layers_) layer->set_training(training);
}

void Sequential::set_input_grad_needed(bool needed) {
  // Only the first layer's input is the container's input; every later
  // layer's input gradient feeds its predecessor's backward.
  Module::set_input_grad_needed(needed);
  if (!layers_.empty()) layers_.front()->set_input_grad_needed(needed);
}

Module& Sequential::layer(std::size_t i) {
  FHDNN_CHECK(i < layers_.size(), "Sequential layer index " << i);
  return *layers_[i];
}

}  // namespace fhdnn::nn
