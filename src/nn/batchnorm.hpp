// BatchNorm2d with full training-mode backward and running statistics.
//
// Running mean/var are exposed as *buffers* (non-learnable state); the
// federated-learning layer averages buffers alongside parameters, matching
// common FedAvg practice for batch-norm statistics.
#pragma once

#include <cstdint>

#include "nn/module.hpp"

namespace fhdnn::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5F,
                       float momentum = 0.1F);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override { return "BatchNorm2d"; }

  std::int64_t channels() const { return channels_; }

 private:
  std::int64_t channels_;
  float eps_;
  float momentum_;
  Parameter gamma_;  // (C), initialized to 1
  Parameter beta_;   // (C), initialized to 0
  Tensor running_mean_;  // (C)
  Tensor running_var_;   // (C), initialized to 1

  // Backward cache (training mode) and reused output buffers.
  Tensor cached_xhat_;     // normalized input
  Tensor cached_inv_std_;  // (C)
  Shape cached_shape_;
  Tensor y_;
  Tensor gx_;
};

}  // namespace fhdnn::nn
