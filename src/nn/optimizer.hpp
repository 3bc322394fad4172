// Optimizers for local client training.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace fhdnn::nn {

/// SGD with classical momentum and L2 weight decay.
///
/// v <- momentum * v + (grad + weight_decay * w); w <- w - lr * v
class Sgd {
 public:
  struct Options {
    float lr = 0.01F;
    float momentum = 0.0F;
    float weight_decay = 0.0F;
  };

  /// Binds to the parameters of `model`; the model must outlive the
  /// optimizer and its parameter set must not change.
  Sgd(Module& model, Options options);

  /// Apply one update using the gradients currently accumulated.
  void step();

  /// Zero the bound parameters' gradients.
  void zero_grad();

  const Options& options() const { return options_; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Tensor> velocity_;
  Options options_;
};

}  // namespace fhdnn::nn
