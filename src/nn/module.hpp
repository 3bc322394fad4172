// Module abstraction for the from-scratch neural-network library.
//
// Every layer implements forward() and backward() with an explicit cache of
// whatever the backward pass needs (no autograd tape). Layers expose their
// learnable state as `Parameter`s (value + gradient) so optimizers and the
// federated-learning layer can traverse a model generically.
//
// forward()/backward() return `const Tensor&` — a reference to a buffer the
// layer owns and reuses across calls (sized with Tensor::ensure_shape), so a
// steady-state training step performs no heap allocation. The reference is
// valid until the next forward()/backward() on the same module; callers that
// need the value to outlive that bind it to a `Tensor` by value.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fhdnn::nn {

/// A learnable tensor and its accumulated gradient.
struct Parameter {
  explicit Parameter(Tensor v)
      : value(std::move(v)), grad(value.shape()) {}

  Tensor value;
  Tensor grad;

  void zero_grad() { grad.zero(); }
};

/// Base class for all layers and containers.
class Module {
 public:
  virtual ~Module() = default;

  /// Compute outputs; caches what backward() needs. The returned reference
  /// points at a module-owned buffer reused by later calls.
  ///
  /// Input lifetime: a module may read `x` again in the matching backward()
  /// instead of copying it (Linear does), so the caller keeps `x` alive and
  /// unchanged until that backward() returns. Chaining layer outputs meets
  /// this, since a layer's output buffer changes only on its next forward().
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Propagate gradients. Must be called after forward() with an upstream
  /// gradient matching forward's output shape; accumulates into parameter
  /// grads and returns the gradient w.r.t. the input (same buffer-reuse
  /// contract as forward()).
  virtual const Tensor& backward(const Tensor& grad_out) = 0;

  /// All learnable parameters (depth-first for containers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Non-learnable state that still travels with the model (e.g. BatchNorm
  /// running statistics). The FL layer serializes and averages these
  /// alongside parameters, matching common FedAvg practice.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Toggle training vs. inference behaviour (BatchNorm uses this).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Declare whether anything reads the gradient backward() returns for
  /// this module's input. A model's owner whose input is the data batch
  /// turns it off once; Conv2d and Linear then skip that work, and their
  /// backward() returns the no_input_grad() placeholder. Parameter
  /// gradients do not change. Sequential passes it to its first layer.
  virtual void set_input_grad_needed(bool needed) {
    input_grad_needed_ = needed;
  }
  bool input_grad_needed() const { return input_grad_needed_; }

  /// The 0-d placeholder backward() returns in place of a skipped input
  /// gradient.
  static const Tensor& no_input_grad();

  virtual std::string name() const = 0;

  /// Total learnable scalar count.
  std::int64_t parameter_count();

  /// Zero all parameter gradients.
  void zero_grad();

 protected:
  bool training_ = true;
  bool input_grad_needed_ = true;
};

/// Sequential container; owns its children.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override;
  void set_training(bool training) override;
  void set_input_grad_needed(bool needed) override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i);

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace fhdnn::nn
