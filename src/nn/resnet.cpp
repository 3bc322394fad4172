#include "nn/resnet.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fhdnn::nn {

ResidualBlock::ResidualBlock(std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t stride,
                             Rng& rng)
    : conv1_(in_channels, out_channels, 3, stride, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ =
        std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

const Tensor& ResidualBlock::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  const Tensor& main = bn2_.forward(
      conv2_.forward(relu1_.forward(bn1_.forward(conv1_.forward(x)))));
  const Tensor& skip =
      proj_conv_ ? proj_bn_->forward(proj_conv_->forward(x)) : x;
  y_.ensure_shape(main.shape());
  ops::add_into(main, skip, y_);
  ops::relu_into(y_, y_);
  return y_;
}

const Tensor& ResidualBlock::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  // Through the output ReLU, masked on its output (see ReLU).
  g_sum_.ensure_shape(y_.shape());
  ops::relu_backward_into(grad_out, y_, g_sum_);
  // Main path, then skip path; each result lives in its own layer's buffer
  // (or is g_sum_ itself), and their sum is written once into ours.
  const Tensor& main = conv1_.backward(bn1_.backward(
      relu1_.backward(conv2_.backward(bn2_.backward(g_sum_)))));
  const Tensor& skip =
      proj_conv_ ? proj_conv_->backward(proj_bn_->backward(g_sum_)) : g_sum_;
  gx_.ensure_shape(main.shape());
  ops::add_into(main, skip, gx_);
  return gx_;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> out;
  for (Module* m : std::initializer_list<Module*>{&conv1_, &bn1_, &conv2_,
                                                  &bn2_}) {
    for (Parameter* p : m->parameters()) out.push_back(p);
  }
  if (proj_conv_) {
    for (Parameter* p : proj_conv_->parameters()) out.push_back(p);
    for (Parameter* p : proj_bn_->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ResidualBlock::buffers() {
  std::vector<Tensor*> out;
  for (Tensor* b : bn1_.buffers()) out.push_back(b);
  for (Tensor* b : bn2_.buffers()) out.push_back(b);
  if (proj_bn_) {
    for (Tensor* b : proj_bn_->buffers()) out.push_back(b);
  }
  return out;
}

void ResidualBlock::set_training(bool training) {
  Module::set_training(training);
  conv1_.set_training(training);
  bn1_.set_training(training);
  relu1_.set_training(training);
  conv2_.set_training(training);
  bn2_.set_training(training);
  if (proj_conv_) {
    proj_conv_->set_training(training);
    proj_bn_->set_training(training);
  }
}

std::unique_ptr<Sequential> make_mini_resnet(std::int64_t in_channels,
                                             std::int64_t num_classes,
                                             std::int64_t base_width,
                                             Rng& rng) {
  FHDNN_CHECK(base_width > 0 && num_classes > 1, "mini_resnet config");
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(in_channels, base_width, 3, 1, 1, rng));
  net->add(std::make_unique<BatchNorm2d>(base_width));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<ResidualBlock>(base_width, base_width, 1, rng));
  net->add(std::make_unique<ResidualBlock>(base_width, 2 * base_width, 2, rng));
  net->add(
      std::make_unique<ResidualBlock>(2 * base_width, 4 * base_width, 2, rng));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(4 * base_width, num_classes, rng));
  return net;
}

std::unique_ptr<Sequential> make_cnn2(std::int64_t in_channels,
                                      std::int64_t image_hw,
                                      std::int64_t num_classes, Rng& rng) {
  FHDNN_CHECK(image_hw % 4 == 0, "cnn2 image size " << image_hw
                                                    << " must be divisible by 4");
  const std::int64_t flat = 32 * (image_hw / 4) * (image_hw / 4);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(in_channels, 16, 3, 1, 1, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<MaxPool2d>(2));
  net->add(std::make_unique<Conv2d>(16, 32, 3, 1, 1, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<MaxPool2d>(2));
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>(flat, 128, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(128, num_classes, rng));
  return net;
}

}  // namespace fhdnn::nn
