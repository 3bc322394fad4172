#include "nn/optimizer.hpp"

#include "util/error.hpp"
#include "util/simd.hpp"

namespace fhdnn::nn {

Sgd::Sgd(Module& model, Options options)
    : params_(model.parameters()), options_(options) {
  FHDNN_CHECK(options_.lr > 0.0F, "SGD lr " << options_.lr);
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  const auto sgd_step = simd::kernels().sgd_step_f32;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    sgd_step(p.value.data().data(), velocity_[i].data().data(),
             p.grad.data().data(), p.value.numel(), options_.lr,
             options_.momentum, options_.weight_decay);
  }
}

void Sgd::reset() {
  for (Tensor& v : velocity_) v.zero();
}

void Sgd::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

}  // namespace fhdnn::nn
