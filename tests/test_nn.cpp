// Tests for src/nn: layers, batchnorm, residual blocks, loss, optimizer,
// serialization. Gradients are validated against central finite differences
// at the module level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "util/bytes.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using nn::Module;
using nn::Parameter;

std::int64_t parameter_count(Module& model) {
  std::int64_t n = 0;
  for (const Parameter* p : model.parameters()) n += p->value.numel();
  return n;
}

/// loss(x) = sum(forward(x) .* g); analytic grads via backward(g).
/// Verifies every parameter gradient (sampled stride for big tensors) and
/// the input gradient against central differences.
void grad_check(Module& model, Tensor x, const Tensor& g, float eps = 1e-2F,
                float tol = 6e-2F, std::int64_t stride = 7) {
  auto loss = [&]() {
    const Tensor y = model.forward(x);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) s += y.at(i) * g.at(i);
    return s;
  };
  model.zero_grad();
  (void)model.forward(x);
  const Tensor gx = model.backward(g);

  for (Parameter* p : model.parameters()) {
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      float& v = p->value.at(i);
      const float orig = v;
      v = orig + eps;
      const double lp = loss();
      v = orig - eps;
      const double lm = loss();
      v = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad.at(i), num, tol)
          << "param grad mismatch at index " << i;
    }
  }
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    float& v = x.at(i);
    const float orig = v;
    v = orig + eps;
    const double lp = loss();
    v = orig - eps;
    const double lm = loss();
    v = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(gx.at(i), num, tol) << "input grad mismatch at index " << i;
  }
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear lin(3, 2, rng);
  EXPECT_EQ(parameter_count(lin), 3 * 2 + 2);
  Tensor x = Tensor::randn(Shape{4, 3}, rng);
  const Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
  EXPECT_THROW(lin.forward(Tensor(Shape{4, 5})), Error);
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  nn::Linear lin(4, 3, rng);
  Tensor x = Tensor::randn(Shape{2, 4}, rng);
  const Tensor g = Tensor::randn(Shape{2, 3}, rng);
  grad_check(lin, x, g, 1e-2F, 5e-2F, 1);
}

TEST(Conv2dLayer, GradCheck) {
  Rng rng(3);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  const Tensor g = Tensor::randn(Shape{1, 3, 4, 4}, rng);
  grad_check(conv, x, g, 1e-2F, 8e-2F, 5);
}

TEST(ReLULayer, GradCheck) {
  Rng rng(4);
  nn::ReLU relu;
  // Keep values away from the kink at 0 for finite differences.
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  for (auto& v : x.data()) {
    if (std::abs(v) < 0.1F) v = 0.3F;
  }
  const Tensor g = Tensor::randn(Shape{3, 5}, rng);
  grad_check(relu, x, g, 1e-3F, 1e-2F, 1);
}

TEST(MaxPoolLayer, GradCheck) {
  Rng rng(5);
  nn::MaxPool2d pool(2);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  const Tensor g = Tensor::randn(Shape{1, 2, 2, 2}, rng);
  grad_check(pool, x, g, 1e-3F, 1e-2F, 1);
}

TEST(MaxPoolLayer, RejectsKernelBelowOne) {
  EXPECT_THROW(nn::MaxPool2d(0), Error);
  EXPECT_THROW(nn::MaxPool2d(-2), Error);
}

TEST(FlattenLayer, RoundTrip) {
  nn::Flatten flat;
  Tensor x(Shape{2, 3, 2, 2});
  x(1, 2, 1, 1) = 5.0F;
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 12}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_EQ(gx(1, 2, 1, 1), 5.0F);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  Rng rng(6);
  nn::BatchNorm2d bn(3);
  Tensor x = Tensor::randn(Shape{4, 3, 5, 5}, rng, 4.0F);
  for (auto& v : x.data()) v += 10.0F;
  const Tensor y = bn.forward(x);
  // Per-channel output mean ~0, var ~1 with default gamma/beta.
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t yx = 0; yx < 25; ++yx) {
        const float v = y(i, c, yx / 5, yx % 5);
        sum += v;
        sq += v * v;
        ++n;
      }
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(sq / n - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConverge) {
  Rng rng(7);
  nn::BatchNorm2d bn(1, 1e-5F, 0.5F);
  for (int i = 0; i < 30; ++i) {
    Tensor x = Tensor::randn(Shape{8, 1, 4, 4}, rng, 2.0F);
    for (auto& v : x.data()) v += 3.0F;
    (void)bn.forward(x);
  }
  // buffers() is {running_mean, running_var}.
  EXPECT_NEAR(bn.buffers()[0]->at(0), 3.0F, 0.4F);
  EXPECT_NEAR(bn.buffers()[1]->at(0), 4.0F, 1.0F);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(8);
  nn::BatchNorm2d bn(1);
  bn.buffers()[0]->at(0) = 2.0F;
  bn.buffers()[1]->at(0) = 4.0F;
  bn.set_training(false);
  Tensor x(Shape{1, 1, 1, 2}, {2.0F, 4.0F});
  const Tensor y = bn.forward(x);
  EXPECT_NEAR(y(0, 0, 0, 0), 0.0F, 1e-3);
  EXPECT_NEAR(y(0, 0, 0, 1), 1.0F, 1e-3);
}

TEST(BatchNorm, GradCheck) {
  Rng rng(9);
  nn::BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  const Tensor g = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  grad_check(bn, x, g, 1e-2F, 8e-2F, 3);
}

TEST(BatchNorm, BuffersExposed) {
  nn::BatchNorm2d bn(4);
  EXPECT_EQ(bn.buffers().size(), 2U);
  EXPECT_EQ(bn.buffers()[0]->numel(), 4);
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(10);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(4, 8, rng));
  seq.add(std::make_unique<nn::ReLU>());
  seq.add(std::make_unique<nn::Linear>(8, 2, rng));
  EXPECT_EQ(seq.size(), 3U);
  EXPECT_EQ(parameter_count(seq), 4 * 8 + 8 + 8 * 2 + 2);
  Tensor x = Tensor::randn(Shape{5, 4}, rng);
  EXPECT_EQ(seq.forward(x).shape(), (Shape{5, 2}));
}

TEST(Sequential, GradCheck) {
  Rng rng(11);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(3, 6, rng));
  seq.add(std::make_unique<nn::ReLU>());
  seq.add(std::make_unique<nn::Linear>(6, 2, rng));
  Tensor x = Tensor::randn(Shape{2, 3}, rng);
  const Tensor g = Tensor::randn(Shape{2, 2}, rng);
  grad_check(seq, x, g, 1e-2F, 6e-2F, 3);
}

TEST(ResidualBlock, IdentitySkipShape) {
  Rng rng(12);
  nn::ResidualBlock block(4, 4, 1, rng);
  EXPECT_EQ(block.buffers().size(), 4U);  // 2 BN layers x 2 buffers
  Tensor x = Tensor::randn(Shape{2, 4, 6, 6}, rng);
  EXPECT_EQ(block.forward(x).shape(), (Shape{2, 4, 6, 6}));
}

TEST(ResidualBlock, ProjectionSkipShape) {
  Rng rng(13);
  nn::ResidualBlock block(4, 8, 2, rng);
  Tensor x = Tensor::randn(Shape{2, 4, 6, 6}, rng);
  EXPECT_EQ(block.forward(x).shape(), (Shape{2, 8, 3, 3}));
  EXPECT_EQ(block.buffers().size(), 6U);  // 3 BN layers x 2 buffers
}

TEST(ResidualBlock, GradCheck) {
  Rng rng(14);
  nn::ResidualBlock block(2, 4, 2, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  (void)block.forward(x);  // establish shapes
  const Tensor g = Tensor::randn(Shape{1, 4, 2, 2}, rng);
  grad_check(block, x, g, 1e-2F, 1e-1F, 11);
}

/// CRC-32 of one block's input gradient after a forward/backward pass. The
/// skip path's add into the main path's gradient is a plain a + b per
/// element, so any rewrite of that sum must keep these bits.
std::uint32_t block_input_grad_crc(std::int64_t out_channels,
                                   std::int64_t stride, std::uint64_t seed) {
  Rng rng(seed);
  nn::ResidualBlock block(4, out_channels, stride, rng);
  const Tensor x = Tensor::randn(Shape{2, 4, 6, 6}, rng);
  const Tensor& y = block.forward(x);
  const Tensor g = Tensor::randn(y.shape(), rng);
  const Tensor& gx = block.backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
  return util::crc32(gx.data().data(),
                     static_cast<std::size_t>(gx.numel()) * sizeof(float));
}

TEST(ResidualBlock, InputGradientBitsArePinned) {
  const util::SimdTier saved = util::active_simd();
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    SCOPED_TRACE(std::string("tier=") +
                 std::string(util::simd_tier_name(tier)));
    EXPECT_EQ(block_input_grad_crc(4, 1, 16), 0x520C68F6U) << "identity skip";
    EXPECT_EQ(block_input_grad_crc(8, 2, 17), 0x5F61E0C4U)
        << "projection skip";
  }
  util::set_simd_tier(saved);
}

TEST(CrossEntropy, KnownValues) {
  nn::CrossEntropyLoss loss;
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits(Shape{2, 4});
  const double l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradCheck) {
  Rng rng(15);
  Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  const std::vector<std::int64_t> labels{1, 4, 0};
  nn::CrossEntropyLoss loss;
  (void)loss.forward(logits, labels);
  const Tensor g = loss.backward();
  const float eps = 1e-2F;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    float& v = logits.at(i);
    const float orig = v;
    v = orig + eps;
    nn::CrossEntropyLoss lp;
    const double fp = lp.forward(logits, labels);
    v = orig - eps;
    nn::CrossEntropyLoss lm;
    const double fm = lm.forward(logits, labels);
    v = orig;
    EXPECT_NEAR(g.at(i), (fp - fm) / (2.0 * eps), 1e-3);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  nn::CrossEntropyLoss loss;
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), Error);
  EXPECT_THROW(loss.forward(logits, {0, 1}), Error);
}

TEST(Accuracy, Computes) {
  Tensor logits(Shape{3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(nn::accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Sgd, DescendsQuadratic) {
  // Minimize ||Wx - y||^2 for a realizable target (y generated by a hidden
  // linear map); SGD must drive the loss near zero.
  Rng rng(16);
  nn::Linear lin(4, 3, rng);
  nn::Sgd opt(lin, {0.02F, 0.9F, 0.0F});
  Tensor x = Tensor::randn(Shape{8, 4}, rng);
  nn::Linear teacher(4, 3, rng);
  const Tensor target = teacher.forward(x);
  auto mse_loss = [&]() {
    const Tensor y = lin.forward(x);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      const double d = y.at(i) - target.at(i);
      s += d * d;
    }
    return s / y.numel();
  };
  const double before = mse_loss();
  for (int it = 0; it < 200; ++it) {
    opt.zero_grad();
    const Tensor y = lin.forward(x);
    Tensor g = y;
    g.axpy(-1.0F, target);
    g.scale(2.0F / static_cast<float>(y.numel()));
    lin.backward(g);
    opt.step();
  }
  EXPECT_LT(mse_loss(), before * 0.05);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Rng rng(17);
  nn::Linear lin(3, 3, rng);
  const double norm0 = lin.weight().value.l2_norm();
  nn::Sgd opt(lin, {0.1F, 0.0F, 0.5F});
  for (int i = 0; i < 10; ++i) {
    opt.zero_grad();  // zero gradient: only decay acts
    opt.step();
  }
  EXPECT_LT(lin.weight().value.l2_norm(), norm0 * 0.7);
}

TEST(Serialize, RoundTrip) {
  Rng rng(18);
  auto net = nn::make_cnn2(1, 8, 4, rng);
  const auto state = nn::get_state(*net);
  EXPECT_EQ(static_cast<std::int64_t>(state.size()), nn::state_size(*net));

  Rng rng2(99);
  auto net2 = nn::make_cnn2(1, 8, 4, rng2);
  nn::set_state(*net2, state);
  EXPECT_EQ(nn::get_state(*net2), state);

  // Identical states -> identical outputs.
  Tensor x = Tensor::randn(Shape{2, 1, 8, 8}, rng);
  net->set_training(false);
  net2->set_training(false);
  const Tensor y1 = net->forward(x);
  const Tensor y2 = net2->forward(x);
  for (std::int64_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1.at(i), y2.at(i));
}

TEST(Serialize, SizeMismatchThrows) {
  Rng rng(19);
  auto net = nn::make_cnn2(1, 8, 4, rng);
  std::vector<float> wrong(3, 0.0F);
  EXPECT_THROW(nn::set_state(*net, wrong), Error);
}

TEST(Serialize, IncludesBatchNormBuffers) {
  Rng rng(20);
  auto net = nn::make_mini_resnet(1, 4, 4, rng);
  std::int64_t param_scalars = 0;
  for (const Parameter* p : net->parameters()) param_scalars += p->value.numel();
  EXPECT_GT(nn::state_size(*net), param_scalars);  // buffers add to state
}

TEST(Factories, Cnn2Shapes) {
  Rng rng(21);
  auto net = nn::make_cnn2(1, 28, 10, rng);
  Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  EXPECT_EQ(net->forward(x).shape(), (Shape{2, 10}));
  EXPECT_THROW(nn::make_cnn2(1, 30, 10, rng), Error);
}

TEST(Factories, MiniResNetShapes) {
  Rng rng(22);
  auto net = nn::make_mini_resnet(3, 10, 8, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  EXPECT_EQ(net->forward(x).shape(), (Shape{2, 10}));
  // Width scaling grows parameters roughly quadratically.
  auto wide = nn::make_mini_resnet(3, 10, 16, rng);
  EXPECT_GT(parameter_count(*wide), 3 * parameter_count(*net));
}

using ModelMaker = std::function<std::unique_ptr<nn::Sequential>(Rng&)>;

/// One training step of a fresh model built by `make` from seed 21: its
/// parameter gradients, and what backward() returned for the input.
struct StepGrads {
  std::unique_ptr<nn::Sequential> net;
  std::vector<float> params;
  const Tensor* input_grad = nullptr;
};

StepGrads step_grads(const ModelMaker& make, const Shape& input,
                     bool input_grad_needed) {
  Rng rng(21);
  StepGrads out{make(rng), {}, nullptr};
  out.net->set_input_grad_needed(input_grad_needed);
  Rng data_rng(22);
  const Tensor x = Tensor::randn(input, data_rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(input[0]));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 10);
  }
  nn::CrossEntropyLoss loss;
  out.net->zero_grad();
  (void)loss.forward(out.net->forward(x), labels);
  out.input_grad = &out.net->backward(loss.backward());
  for (Parameter* p : out.net->parameters()) {
    out.params.insert(out.params.end(), p->grad.data().begin(),
                      p->grad.data().end());
  }
  return out;
}

void expect_skip_keeps_param_grads(const ModelMaker& make,
                                   const Shape& input) {
  const StepGrads full = step_grads(make, input, true);
  const StepGrads skipped = step_grads(make, input, false);
  ASSERT_EQ(full.params.size(), skipped.params.size());
  EXPECT_EQ(std::memcmp(full.params.data(), skipped.params.data(),
                        full.params.size() * sizeof(float)),
            0)
      << "skipping the input gradient changed a parameter gradient";
  EXPECT_EQ(full.input_grad->shape(), input);
  EXPECT_EQ(skipped.input_grad, &Module::no_input_grad());
}

TEST(InputGrad, Cnn2SkipKeepsParameterGradsBitIdentical) {
  expect_skip_keeps_param_grads(
      [](Rng& rng) { return nn::make_cnn2(1, 28, 10, rng); },
      Shape{10, 1, 28, 28});
}

TEST(InputGrad, LinearFirstSkipKeepsParameterGradsBitIdentical) {
  expect_skip_keeps_param_grads(
      [](Rng& rng) {
        auto net = std::make_unique<nn::Sequential>();
        net->add(std::make_unique<nn::Linear>(12, 16, rng));
        net->add(std::make_unique<nn::ReLU>());
        net->add(std::make_unique<nn::Linear>(16, 10, rng));
        return net;
      },
      Shape{6, 12});
}

TEST(InputGrad, SequentialPassesTheFlagToItsFirstLayerOnly) {
  Rng rng(23);
  nn::Sequential net;
  net.set_input_grad_needed(false);
  net.add(std::make_unique<nn::Conv2d>(1, 2, 3, 1, 1, rng));
  net.add(std::make_unique<nn::Conv2d>(2, 2, 3, 1, 1, rng));
  const Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  (void)net.forward(x);
  const Tensor g = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  EXPECT_EQ(&net.layer(0).backward(g), &Module::no_input_grad());
  EXPECT_EQ(net.layer(1).backward(g).shape(), (Shape{1, 2, 4, 4}));
  net.set_input_grad_needed(true);
  // A layer takes one backward per training-mode forward.
  (void)net.forward(x);
  EXPECT_EQ(net.layer(0).backward(g).shape(), (Shape{1, 1, 4, 4}));
}

}  // namespace
}  // namespace fhdnn
