// End-to-end training tests for the NN substrate: small models must
// actually learn synthetic tasks (this is what the FedAvg baseline rests on).
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

/// Train `net` centrally for `epochs` over ds with batch size 16.
double train_and_eval(nn::Module& net, const data::Dataset& train,
                      const data::Dataset& test, int epochs, float lr,
                      Rng& rng) {
  nn::Sgd opt(net, {lr, 0.9F, 0.0F});
  nn::CrossEntropyLoss loss;
  net.set_training(true);
  for (int e = 0; e < epochs; ++e) {
    data::BatchIterator it(static_cast<std::size_t>(train.size()), 16, rng);
    while (!it.done()) {
      const auto idx = it.next();
      const auto batch = train.gather(idx);
      opt.zero_grad();
      const Tensor logits = net.forward(batch.x);
      (void)loss.forward(logits, batch.labels);
      net.backward(loss.backward());
      opt.step();
    }
  }
  net.set_training(false);
  const Tensor logits = net.forward(test.x);
  return nn::accuracy(logits, test.labels);
}

TEST(CentralTraining, Cnn2LearnsSyntheticMnist) {
  Rng rng(1);
  auto full = data::synthetic_mnist(400, rng);
  auto split = data::train_test_split(full, 0.25, rng);
  Rng init(2);
  auto net = nn::make_cnn2(1, 28, 10, init);
  Rng train_rng(3);
  const double acc =
      train_and_eval(*net, split.train, split.test, 6, 0.05F, train_rng);
  EXPECT_GT(acc, 0.8) << "CNN2 failed to learn an easy synthetic task";
}

TEST(CentralTraining, MiniResNetLearnsSyntheticCifar) {
  Rng rng(4);
  auto full = data::synthetic_cifar(300, rng);
  auto split = data::train_test_split(full, 0.25, rng);
  Rng init(5);
  auto net = nn::make_mini_resnet(3, 10, 8, init);
  Rng train_rng(6);
  const double acc =
      train_and_eval(*net, split.train, split.test, 8, 0.05F, train_rng);
  EXPECT_GT(acc, 0.5) << "MiniResNet failed to learn";
}

TEST(CentralTraining, DeterministicGivenSeeds) {
  // Identical seeds end-to-end must produce bit-identical accuracy — the
  // reproducibility contract every experiment in this repo relies on.
  auto run_once = [] {
    Rng rng(7);
    auto full = data::synthetic_mnist(200, rng);
    auto split = data::train_test_split(full, 0.25, rng);
    Rng init(8);
    auto net = nn::make_cnn2(1, 28, 10, init);
    Rng train_rng(9);
    return train_and_eval(*net, split.train, split.test, 2, 0.05F, train_rng);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fhdnn
