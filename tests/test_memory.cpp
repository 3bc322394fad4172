// Memory-architecture tests (DESIGN.md §9): workspace arena behaviour,
// bitwise equivalence of every `_into` kernel with its value-returning
// wrapper, view aliasing policy, and the zero-allocation steady state of a
// full CNN training step and HD encode. This target links
// util/alloc_spy.cpp, so operator new/delete are counted process-wide.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "computed.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "features/extractor.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "tensor/view.hpp"
#include "util/alloc_spy.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

// Sanitizers interpose the allocator and allocate internally; allocation
// counts are meaningless there, so the strict steady-state tests skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FHDNN_SANITIZED 1
#endif
#if !defined(FHDNN_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FHDNN_SANITIZED 1
#endif
#endif
#ifndef FHDNN_SANITIZED
#define FHDNN_SANITIZED 0
#endif

#define SKIP_IF_SANITIZED()                                               \
  if (FHDNN_SANITIZED) {                                                  \
    GTEST_SKIP() << "allocation counting is unreliable under sanitizers"; \
  }

namespace fhdnn {
namespace {

void expect_bits_eq(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << "bitwise mismatch between _into kernel and wrapper";
}

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

TEST(Workspace, ScopeRewindsAndStatsTrack) {
  util::Workspace ws;
  {
    const util::Workspace::Scope scope(ws);
    float* a = ws.floats(100);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0U);
    std::int64_t* idx = ws.indices(50);
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(idx) % 16, 0U);
    // The ranges are usable end to end.
    for (int i = 0; i < 100; ++i) a[i] = static_cast<float>(i);
    for (int i = 0; i < 50; ++i) idx[i] = i;
    EXPECT_GE(ws.stats().bytes_in_use, 100 * sizeof(float) + 50 * 8);
  }
  EXPECT_EQ(ws.stats().bytes_in_use, 0U);
  EXPECT_EQ(ws.stats().alloc_calls, 2U);
  EXPECT_GE(ws.stats().high_water_bytes, 100 * sizeof(float) + 50 * 8);
}

TEST(Workspace, NestedScopesRewindToTheirMark) {
  util::Workspace ws;
  const util::Workspace::Scope outer(ws);
  (void)ws.floats(10);
  const std::uint64_t at_outer = ws.stats().bytes_in_use;
  {
    const util::Workspace::Scope inner(ws);
    (void)ws.floats(1000);
    EXPECT_GT(ws.stats().bytes_in_use, at_outer);
  }
  EXPECT_EQ(ws.stats().bytes_in_use, at_outer);
}

TEST(Workspace, SteadyStateStopsGrowing) {
  util::Workspace ws;
  auto step = [&ws] {
    const util::Workspace::Scope scope(ws);
    (void)ws.floats(3000);
    (void)ws.indices(500);
    const util::Workspace::Scope inner(ws);
    (void)ws.floats(20000);
  };
  step();  // warmup grows the arena
  ws.reset();
  const auto warm = ws.stats();
  for (int i = 0; i < 5; ++i) step();
  const auto steady = ws.stats();
  EXPECT_EQ(steady.heap_allocations, warm.heap_allocations);
  EXPECT_EQ(steady.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(steady.high_water_bytes, warm.high_water_bytes);
}

TEST(Workspace, ResetCoalescesFragmentedGrowthIntoOneBlock) {
  util::Workspace ws;
  {
    const util::Workspace::Scope scope(ws);
    (void)ws.floats(20'000);  // 80 KB: first block
    (void)ws.floats(60'000);  // 240 KB: forces a second block
  }
  const auto grown = ws.stats();
  EXPECT_GE(grown.heap_allocations, 2U);
  ws.reset();
  const auto coalesced = ws.stats();
  // One more backing allocation to merge, then the full former capacity is
  // available contiguously and repeating the pattern allocates nothing.
  EXPECT_EQ(coalesced.heap_allocations, grown.heap_allocations + 1);
  EXPECT_GE(coalesced.capacity_bytes, grown.high_water_bytes);
  {
    const util::Workspace::Scope scope(ws);
    (void)ws.floats(20'000);
    (void)ws.floats(60'000);
  }
  EXPECT_EQ(ws.stats().heap_allocations, coalesced.heap_allocations);
}

TEST(Workspace, SmallRequestAfterALargeBlockGrowsASmallBlock) {
  // The classifier readout on a cold arena: a K = 26 norm array (the first
  // 64 KiB block, which doubles the growth step), the 1.04 MB prototype
  // panel (a block of its own), then 1664 bytes of dot scratch, which
  // finds every block full and gets one step, not a copy of the arena.
  util::Workspace ws;
  const util::Workspace::Scope scope(ws);
  (void)ws.doubles(26);
  (void)ws.floats(26 * 10'000);
  const auto before = ws.stats();
  (void)ws.doubles(208);
  const auto after = ws.stats();
  EXPECT_EQ(after.heap_allocations, before.heap_allocations + 1);
  EXPECT_EQ(after.capacity_bytes - before.capacity_bytes, 128U * 1024U)
      << "a 1664-byte miss grew the arena by "
      << (after.capacity_bytes - before.capacity_bytes) << " bytes";
}

TEST(Workspace, SmallRequestsGrowInLogarithmicallyManyBlocks) {
  // 1 MiB in 1 KiB pieces under one Scope: blocks of 64, 128, 256, 512
  // and 1024 KiB, never one block per piece.
  util::Workspace ws;
  {
    const util::Workspace::Scope scope(ws);
    for (int i = 0; i < 1024; ++i) (void)ws.floats(256);
  }
  EXPECT_LE(ws.stats().heap_allocations, 5U);
  EXPECT_GE(ws.stats().capacity_bytes, 1024U * 1024U);
  ws.reset();
  const auto warm = ws.stats();
  {
    const util::Workspace::Scope scope(ws);
    for (int i = 0; i < 1024; ++i) (void)ws.floats(256);
  }
  EXPECT_EQ(ws.stats().heap_allocations, warm.heap_allocations);
}

TEST(Workspace, TlsWorkspaceIsPerThread) {
  util::Workspace* main_ws = &util::tls_workspace();
  util::Workspace* other_ws = nullptr;
  // Deliberately raw: this test asserts the arena is thread-local, so it
  // must observe a thread the util/parallel pool does not own.
  // fhdnn-lint: allow(raw-thread)
  std::thread t([&other_ws] { other_ws = &util::tls_workspace(); });
  t.join();
  ASSERT_NE(other_ws, nullptr);
  EXPECT_NE(main_ws, other_ws);
  // Same thread, same arena.
  EXPECT_EQ(main_ws, &util::tls_workspace());
}

// ---------------------------------------------------------------------------
// The encoder's value forms are bit-identical to its _into forms
// ---------------------------------------------------------------------------

TEST(IntoKernels, EncoderMatchesWrappers) {
  Rng rng(506);
  Rng enc_rng = rng.fork("enc");
  const hdc::RandomProjectionEncoder enc(16, 64, enc_rng);
  const Tensor z = Tensor::randn(Shape{5, 16}, rng);

  Tensor h(Shape{5, 64});
  enc.encode_linear_into(z, h);
  expect_bits_eq(h.data(), enc.encode_linear(z).data());
  enc.encode_into(z, h);
  expect_bits_eq(h.data(), enc.encode(z).data());

  Tensor zr(Shape{5, 16});
  enc.reconstruct_into(h, zr);
  expect_bits_eq(zr.data(), enc.reconstruct(h).data());

  // 1-d (single vector) forms go through the same path.
  const Tensor z1 = Tensor::randn(Shape{16}, rng);
  Tensor h1(Shape{64});
  enc.encode_into(z1, h1);
  expect_bits_eq(h1.data(), enc.encode(z1).data());
}

// ---------------------------------------------------------------------------
// Aliasing policy
// ---------------------------------------------------------------------------

TEST(ViewAliasing, ElementwiseKernelsAcceptOutAliasingInput) {
  Rng rng(607);
  const Tensor a0 = Tensor::randn(Shape{6, 6}, rng);
  const Tensor b = Tensor::randn(Shape{6, 6}, rng);

  // Each kernel run in place on a copy of a0 must write what it writes
  // into a separate output.
  const auto expect_in_place_matches = [&](const auto& kernel) {
    Tensor a = a0;
    kernel(a, a);
    expect_bits_eq(a.data(),
                   computed(a0.shape(), [&](Tensor& o) { kernel(a0, o); })
                       .data());
  };
  expect_in_place_matches(
      [&](const Tensor& x, Tensor& o) { ops::add_into(x, b, o); });
  expect_in_place_matches(
      [](const Tensor& x, Tensor& o) { ops::scale_into(x, -2.5F, o); });
  expect_in_place_matches(
      [](const Tensor& x, Tensor& o) { ops::relu_into(x, o); });
  expect_in_place_matches(
      [&](const Tensor& x, Tensor& o) { ops::relu_backward_into(b, x, o); });
  expect_in_place_matches(
      [](const Tensor& x, Tensor& o) { ops::softmax_rows_into(x, o); });
}

TEST(ViewAliasing, ReadAfterWriteKernelsRejectOverlap) {
  Tensor a(Shape{4, 4});
  Tensor b(Shape{4, 4});
  EXPECT_THROW(ops::matmul_into(a, b, a), Error);
  EXPECT_THROW(ops::matmul_bt_into(a, b, b), Error);
  EXPECT_THROW(ops::matmul_at_into(a, b, a), Error);
  EXPECT_THROW(ops::transpose_into(a, a), Error);

  const TensorView row_of_a(a.data().data(), {4});
  EXPECT_THROW(ops::sum_rows_into(a, row_of_a), Error);

  const ops::Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor buf(Shape{160});  // both views live inside one allocation
  float* p = buf.data().data();
  const ConstTensorView img(p, {1, 1, 4, 4});
  const TensorView cols_over_img(p, {16, 9});
  EXPECT_THROW(ops::im2col_into(img, spec, cols_over_img), Error);
}

TEST(ViewAliasing, OverlapDetectionIsExact) {
  Tensor t(Shape{10});
  float* p = t.data().data();
  EXPECT_TRUE(views_overlap(TensorView(p, {10}), TensorView(p + 5, {5})));
  EXPECT_FALSE(views_overlap(TensorView(p, {5}), TensorView(p + 5, {5})));
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

namespace {

/// One full supervised training step on `net` (forward, loss, backward,
/// SGD). Exactly what fl::FedAvg runs per minibatch.
void training_step(nn::Module& net, nn::CrossEntropyLoss& loss, nn::Sgd& opt,
                   const Tensor& x, const std::vector<std::int64_t>& labels) {
  util::tls_workspace().reset();
  opt.zero_grad();
  const Tensor& logits = net.forward(x);
  (void)loss.forward(logits, labels);
  net.backward(loss.backward());
  opt.step();
}

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(parallel::num_threads()) {
    parallel::set_num_threads(n);
  }
  ~ThreadCountGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Warm up, then require three more training steps to make no heap
/// allocation and to leave the arena's capacity and high-water mark flat.
void expect_step_allocation_free(nn::Module& net, const Shape& input,
                                 int threads) {
  const ThreadCountGuard guard(threads);
  nn::CrossEntropyLoss loss;
  nn::Sgd opt(net, {0.05F, 0.9F, 0.0F});
  Rng data_rng(809);
  const Tensor x = Tensor::randn(input, data_rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(input[0]));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % 10;
  }

  // Warmup: grows layer buffers, the arena, and (threaded) the pool.
  training_step(net, loss, opt, x, labels);
  training_step(net, loss, opt, x, labels);

  const auto ws_warm = util::tls_workspace().stats();
  const auto spy0 = util::alloc_spy_snapshot();
  for (int i = 0; i < 3; ++i) training_step(net, loss, opt, x, labels);
  const auto spy1 = util::alloc_spy_snapshot();
  const auto ws_steady = util::tls_workspace().stats();

  EXPECT_EQ(spy1.count - spy0.count, 0U)
      << "steady-state training step allocated "
      << (spy1.bytes - spy0.bytes) << " bytes in "
      << (spy1.count - spy0.count) << " calls";
  EXPECT_EQ(ws_steady.heap_allocations, ws_warm.heap_allocations);
  EXPECT_EQ(ws_steady.high_water_bytes, ws_warm.high_water_bytes);
}

void expect_cnn_step_allocation_free(int threads) {
  Rng rng(808);
  auto net = nn::make_mini_resnet(1, 10, 4, rng);
  expect_step_allocation_free(*net, Shape{8, 1, 16, 16}, threads);
}

/// The paper's Cnn2 at the benchmark's minibatch (B = 10, 28x28). Its
/// matmul_bt calls pack both ways: the convolutions and fc2 pack weight^T
/// (lanes over output channels), fc1 packs its input^T (lanes over the
/// batch of 10, fewer than its 128 outputs).
void expect_cnn2_step_allocation_free(int threads) {
  Rng rng(808);
  auto net = nn::make_cnn2(1, 28, 10, rng);
  expect_step_allocation_free(*net, Shape{10, 1, 28, 28}, threads);
}

}  // namespace

TEST(ZeroAlloc, CnnTrainingStepSerial) {
  SKIP_IF_SANITIZED();
  expect_cnn_step_allocation_free(1);
}

TEST(ZeroAlloc, CnnTrainingStepFourThreads) {
  SKIP_IF_SANITIZED();
  expect_cnn_step_allocation_free(4);
}

TEST(ZeroAlloc, Cnn2TrainingStepSerial) {
  SKIP_IF_SANITIZED();
  expect_cnn2_step_allocation_free(1);
}

TEST(ZeroAlloc, Cnn2TrainingStepFourThreads) {
  SKIP_IF_SANITIZED();
  expect_cnn2_step_allocation_free(4);
}

TEST(ZeroAlloc, HdEncodeSteadyState) {
  SKIP_IF_SANITIZED();
  Rng rng(910);
  Rng enc_rng = rng.fork("enc");
  const hdc::RandomProjectionEncoder enc(64, 1024, enc_rng);
  const Tensor z = Tensor::randn(Shape{16, 64}, rng);
  Tensor h(Shape{16, 1024});
  Tensor zr(Shape{16, 64});
  enc.encode_into(z, h);  // warmup (pool spawn, if any)
  enc.reconstruct_into(h, zr);

  const auto spy0 = util::alloc_spy_snapshot();
  for (int i = 0; i < 5; ++i) {
    enc.encode_into(z, h);
    enc.reconstruct_into(h, zr);
  }
  const auto spy1 = util::alloc_spy_snapshot();
  EXPECT_EQ(spy1.count - spy0.count, 0U);
}

void expect_refine_allocation_free(int threads) {
  const ThreadCountGuard guard(threads);
  Rng rng(912);
  const Tensor h = Tensor::randn(Shape{32, 1000}, rng);
  std::vector<std::int64_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % 10;
  }
  hdc::HdClassifier clf(10, 1000);
  clf.bundle(h, labels);
  (void)clf.refine_epoch(h, labels);  // warmup grows the arena

  const auto spy0 = util::alloc_spy_snapshot();
  for (int i = 0; i < 3; ++i) {
    (void)clf.refine_epoch(h, labels);
  }
  const auto spy1 = util::alloc_spy_snapshot();
  EXPECT_EQ(spy1.count - spy0.count, 0U)
      << "steady-state refine_epoch allocated " << (spy1.bytes - spy0.bytes)
      << " bytes in " << (spy1.count - spy0.count) << " calls";
}

TEST(ZeroAlloc, HdRefineEpochSerial) {
  SKIP_IF_SANITIZED();
  expect_refine_allocation_free(1);
}

TEST(ZeroAlloc, HdRefineEpochFourThreads) {
  SKIP_IF_SANITIZED();
  expect_refine_allocation_free(4);
}

TEST(ZeroAlloc, FeatureExtractSteadyState) {
  SKIP_IF_SANITIZED();
  features::FrozenFeatureExtractor::Config cfg;
  cfg.in_channels = 1;
  cfg.image_hw = 16;
  cfg.conv_width = 4;
  cfg.output_dim = 32;
  const features::FrozenFeatureExtractor ext(cfg);
  Rng rng(911);
  const Tensor imgs = Tensor::randn(Shape{8, 1, 16, 16}, rng);
  Tensor out(Shape{8, 32});
  util::tls_workspace().reset();
  ext.extract_into(imgs, out);  // warmup
  ext.extract_into(imgs, out);

  const auto spy0 = util::alloc_spy_snapshot();
  for (int i = 0; i < 3; ++i) ext.extract_into(imgs, out);
  const auto spy1 = util::alloc_spy_snapshot();
  EXPECT_EQ(spy1.count - spy0.count, 0U);
}

/// A Cnn2 FedAvg trainer after one round, with a test set of 70 examples:
/// several evaluation chunks, the last one short.
std::unique_ptr<fl::FedAvgTrainer> trained_cnn2(const data::Dataset& train,
                                                const data::Dataset& test) {
  Rng part_rng(812);
  fl::FedAvgConfig config;
  config.n_clients = 2;
  config.client_fraction = 1.0;
  config.local_epochs = 1;
  config.rounds = 1;
  config.seed = 813;
  auto trainer = std::make_unique<fl::FedAvgTrainer>(
      [](Rng& rng) { return nn::make_cnn2(1, 28, 10, rng); }, train,
      data::partition_iid(train, 2, part_rng), test, config);
  (void)trainer->round(0);
  return trainer;
}

TEST(ZeroAlloc, FedAvgEvaluateSteadyState) {
  SKIP_IF_SANITIZED();
  const ThreadCountGuard guard(1);
  Rng rng(810);
  const data::Dataset train = data::synthetic_mnist(40, rng);
  const data::Dataset test = data::synthetic_mnist(70, rng);
  const auto trainer = trained_cnn2(train, test);
  const double first = trainer->evaluate();
  const auto spy0 = util::alloc_spy_snapshot();
  const double second = trainer->evaluate();
  const auto spy1 = util::alloc_spy_snapshot();
  EXPECT_EQ(spy1.count - spy0.count, 0U)
      << "a second evaluate() allocated " << (spy1.bytes - spy0.bytes)
      << " bytes in " << (spy1.count - spy0.count) << " calls";
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Trainers borrow their data: no temporary binds, and a trainer copies none
// ---------------------------------------------------------------------------

using HdClients = std::vector<fl::HdClientData>;
static_assert(std::is_constructible_v<fl::FedHdTrainer, HdClients&,
                                      fl::HdClientData&, fl::FedHdConfig>);
static_assert(!std::is_constructible_v<fl::FedHdTrainer, HdClients,
                                       const fl::HdClientData&,
                                       fl::FedHdConfig>);
static_assert(!std::is_constructible_v<fl::FedHdTrainer, const HdClients&,
                                       fl::HdClientData, fl::FedHdConfig>);
static_assert(!std::is_constructible_v<fl::FedHdTrainer, HdClients,
                                       fl::HdClientData, fl::FedHdConfig>);

static_assert(std::is_constructible_v<fl::FedAvgTrainer, fl::ModelFactory,
                                      data::Dataset&, data::ClientIndices,
                                      data::Dataset&, fl::FedAvgConfig>);
static_assert(!std::is_constructible_v<fl::FedAvgTrainer, fl::ModelFactory,
                                       data::Dataset, data::ClientIndices,
                                       const data::Dataset&,
                                       fl::FedAvgConfig>);
static_assert(!std::is_constructible_v<fl::FedAvgTrainer, fl::ModelFactory,
                                       const data::Dataset&,
                                       data::ClientIndices, data::Dataset,
                                       fl::FedAvgConfig,
                                       const channel::Channel*>);
static_assert(!std::is_constructible_v<fl::FedAvgTrainer, fl::ModelFactory,
                                       data::Dataset, data::ClientIndices,
                                       data::Dataset, fl::FedAvgConfig>);

TEST(Borrow, AnotherFedHdTrainerAllocatesTheModelNotTheData) {
  SKIP_IF_SANITIZED();
  // N = 1200 encoded rows (9.6 MB) against a K x d model of 80 KB.
  constexpr std::int64_t kK = 10;
  constexpr std::int64_t kD = 2000;
  constexpr std::int64_t kRows = 24;
  Rng rng(820);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < kRows; ++i) labels.push_back(i % kK);
  HdClients clients;
  for (int c = 0; c < 50; ++c) {
    clients.push_back({Tensor::randn(Shape{kRows, kD}, rng), labels});
  }
  const fl::HdClientData test{Tensor::randn(Shape{kRows, kD}, rng), labels};
  fl::FedHdConfig cfg;
  cfg.n_clients = clients.size();
  cfg.num_classes = kK;
  cfg.hd_dim = kD;
  const fl::FedHdTrainer first(clients, test, cfg);
  const auto spy0 = util::alloc_spy_snapshot();
  const fl::FedHdTrainer second(clients, test, cfg);
  const auto spy1 = util::alloc_spy_snapshot();
  const std::uint64_t model_bytes = kK * kD * sizeof(float);
  EXPECT_LE(spy1.bytes - spy0.bytes, 4 * model_bytes)
      << "a second trainer over the same " << 51 * kRows << " x " << kD
      << " data allocated " << (spy1.bytes - spy0.bytes) << " bytes";
  EXPECT_EQ(first.evaluate(), second.evaluate());
}

TEST(ParallelEvaluate, CountsEveryTestExampleOnceAtEveryThreadCount) {
  Rng rng(810);
  const data::Dataset train = data::synthetic_mnist(40, rng);
  data::Dataset test = data::synthetic_mnist(70, rng);
  // Relabel the test set with the trained model's own predictions, made
  // in one forward over the whole set: then every example counted once
  // scores exactly 1, and one flipped label exactly 69 / 70.
  {
    const auto trainer = trained_cnn2(train, test);
    nn::Module& model = trainer->global_model();
    model.set_training(false);
    ops::argmax_rows_into(model.forward(test.x), test.labels);
  }
  data::Dataset flipped = test;
  flipped.labels[37] = (flipped.labels[37] + 1) % 10;
  for (const int threads : {1, 2, 3, 4}) {
    const ThreadCountGuard guard(threads);
    EXPECT_EQ(trained_cnn2(train, test)->evaluate(), 1.0)
        << threads << " threads";
    EXPECT_EQ(trained_cnn2(train, flipped)->evaluate(), 69.0 / 70.0)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace fhdnn
