// Tests for util/parallel.hpp and the determinism guarantee of every
// parallel path: tensor kernels and full FL training runs must be
// bit-identical at FHDNN_THREADS=1 and FHDNN_THREADS=4.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "computed.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace fhdnn {
namespace {

/// Restores the configured thread count when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel::num_threads()) {}
  ~ThreadGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------ parallel_for

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  int calls = 0;
  parallel::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel::parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RangeSmallerThanGrainRunsInlineAsOneChunk) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  int calls = 0;
  std::int64_t seen_begin = -1, seen_end = -1;
  parallel::parallel_for(2, 9, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 9);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (const int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    constexpr std::int64_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    parallel::parallel_for(0, kN, 64, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    // Trigger on range coverage, not chunk begin: at 1 thread the body is
    // invoked once with the whole [0, 1000) range.
    EXPECT_THROW(
        parallel::parallel_for(0, 1000, 10,
                               [&](std::int64_t, std::int64_t e) {
                                 if (e > 500) {
                                   throw std::runtime_error("chunk failed");
                                 }
                               }),
        std::runtime_error)
        << "at " << threads << " threads";
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  std::atomic<int> inner_chunks{0};
  parallel::parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    // A nested call must collapse to a single inline chunk.
    int calls = 0;
    parallel::parallel_for(0, 100, 1,
                           [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 1);
    inner_chunks.fetch_add(calls);
  });
  EXPECT_EQ(inner_chunks.load(), 8);
}

TEST(ParallelFor, GrainForBoundsChunkWork) {
  EXPECT_EQ(parallel::grain_for(1, 1 << 10), 1 << 10);
  EXPECT_EQ(parallel::grain_for(1 << 10, 1 << 10), 1);
  EXPECT_EQ(parallel::grain_for(1 << 20, 1 << 10), 1);  // never below 1
  EXPECT_EQ(parallel::grain_for(0, 1 << 10), 1 << 10);  // zero-cost items
}

// -------------------------------------------------- kernel determinism

TEST(ParallelKernels, MatmulBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{64, 128}, rng);
  const Tensor b = Tensor::randn(Shape{128, 96}, rng);
  const Tensor at =
      computed({128, 64}, [&](Tensor& o) { ops::transpose_into(a, o); });
  const Tensor bt =
      computed({96, 128}, [&](Tensor& o) { ops::transpose_into(b, o); });
  const auto products = [&] {
    return std::vector<Tensor>{
        computed({64, 96}, [&](Tensor& o) { ops::matmul_into(a, b, o); }),
        computed({64, 96}, [&](Tensor& o) { ops::matmul_bt_into(a, bt, o); }),
        computed({64, 96}, [&](Tensor& o) { ops::matmul_at_into(at, b, o); })};
  };
  parallel::set_num_threads(1);
  const std::vector<Tensor> serial = products();
  parallel::set_num_threads(4);
  const std::vector<Tensor> threaded = products();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], threaded[i])) << "product " << i;
  }
}

TEST(ParallelKernels, ConvForwardBackwardBitIdentical) {
  ThreadGuard guard;
  Rng rng(12);
  const ops::Conv2dSpec spec{3, 8, 3, 1, 1};
  const Tensor x = Tensor::randn(Shape{4, 3, 16, 16}, rng);
  const Tensor w = Tensor::randn(Shape{8, 3, 3, 3}, rng);
  const Tensor bias = Tensor::randn(Shape{8}, rng);
  const Tensor g = Tensor::randn(Shape{4, 8, 16, 16}, rng);
  // y, cols, grad_input, grad_weight, grad_bias.
  const auto run = [&] {
    std::vector<Tensor> out{Tensor(g.shape()), Tensor(Shape{4 * 16 * 16, 27}),
                            Tensor(x.shape()), Tensor(w.shape()),
                            Tensor(bias.shape())};
    util::Workspace& ws = util::tls_workspace();
    ops::conv2d_forward_into(x, w, bias, spec, out[0], out[1], ws);
    TensorView gx(out[2]);
    ops::conv2d_backward_from_cols_into(g, out[1], w, spec, &gx, out[3],
                                        out[4], ws);
    return out;
  };
  parallel::set_num_threads(1);
  const std::vector<Tensor> serial = run();
  parallel::set_num_threads(4);
  const std::vector<Tensor> threaded = run();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], threaded[i])) << "output " << i;
  }
}

TEST(ParallelKernels, Im2ColBitIdentical) {
  ThreadGuard guard;
  Rng rng(13);
  const ops::Conv2dSpec spec{2, 4, 3, 2, 1};
  const Tensor x = Tensor::randn(Shape{3, 2, 15, 15}, rng);
  const auto im2col = [&] {
    return computed({3 * 8 * 8, 18},
                    [&](Tensor& o) { ops::im2col_into(x, spec, o); });
  };
  const auto col2im = [&](const Tensor& cols) {
    return computed(x.shape(), [&](Tensor& o) {
      ops::col2im_into(cols, spec, 3, 15, 15, o);
    });
  };
  parallel::set_num_threads(1);
  const Tensor cols1 = im2col();
  const Tensor folded1 = col2im(cols1);
  parallel::set_num_threads(4);
  EXPECT_TRUE(bit_identical(cols1, im2col()));
  EXPECT_TRUE(bit_identical(folded1, col2im(cols1)));
}

// ------------------------------------------------- IEEE NaN propagation

TEST(ParallelKernels, MatmulPropagatesNanAgainstZero) {
  // Regression: the old kernels skipped a == 0 entries, silently swallowing
  // 0 * NaN and 0 * Inf. IEEE-754 requires both to produce NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor a(Shape{2, 2}, {0.0F, 0.0F, 1.0F, 1.0F});
  const Tensor b_nan(Shape{2, 2}, {nan, 1.0F, 2.0F, 3.0F});
  const Tensor c_nan =
      computed({2, 2}, [&](Tensor& o) { ops::matmul_into(a, b_nan, o); });
  EXPECT_TRUE(std::isnan(c_nan(0, 0)));  // 0*NaN + 0*2
  EXPECT_FALSE(std::isnan(c_nan(0, 1)));

  const Tensor b_inf(Shape{2, 2}, {inf, 1.0F, 2.0F, 3.0F});
  const Tensor c_inf =
      computed({2, 2}, [&](Tensor& o) { ops::matmul_into(a, b_inf, o); });
  EXPECT_TRUE(std::isnan(c_inf(0, 0)));  // 0*Inf = NaN

  // matmul_at: a^T has the zero column in the same position.
  const Tensor at =
      computed({2, 2}, [&](Tensor& o) { ops::transpose_into(a, o); });
  const Tensor c_at =
      computed({2, 2}, [&](Tensor& o) { ops::matmul_at_into(at, b_nan, o); });
  EXPECT_TRUE(std::isnan(c_at(0, 0)));
}

// ---------------------------------------------- FL training determinism

struct FedAvgFixture {
  data::Dataset train, test;
  data::ClientIndices parts;

  FedAvgFixture() {
    Rng rng(21);
    auto full = data::synthetic_mnist(300, rng);
    auto split = data::train_test_split(full, 0.2, rng);
    train = std::move(split.train);
    test = std::move(split.test);
    parts = data::partition_iid(train, 4, rng);
  }

  fl::FedAvgConfig config() const {
    fl::FedAvgConfig cfg;
    cfg.n_clients = 4;
    cfg.client_fraction = 0.75;  // 3 clients/round
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.rounds = 2;
    cfg.seed = 22;
    return cfg;
  }

  fl::ModelFactory factory() const {
    return [](Rng& rng) { return nn::make_cnn2(1, 28, 10, rng); };
  }
};

void expect_identical_histories(const fl::TrainingHistory& a,
                                const fl::TrainingHistory& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ma = a.rounds()[i];
    const auto& mb = b.rounds()[i];
    EXPECT_EQ(ma.test_accuracy, mb.test_accuracy) << "round " << i;
    EXPECT_EQ(ma.train_loss, mb.train_loss) << "round " << i;
    EXPECT_EQ(ma.clients, mb.clients) << "round " << i;
    EXPECT_EQ(ma.sampled, mb.sampled) << "round " << i;
    EXPECT_EQ(ma.dropped, mb.dropped) << "round " << i;
    EXPECT_EQ(ma.bytes_uplink, mb.bytes_uplink) << "round " << i;
    EXPECT_EQ(ma.bits_on_air, mb.bits_on_air) << "round " << i;
    EXPECT_EQ(ma.bit_flips, mb.bit_flips) << "round " << i;
    EXPECT_EQ(ma.packets_lost, mb.packets_lost) << "round " << i;
    // wall_seconds is intentionally not compared: it is the one
    // RoundMetrics field outside the bit-identical contract.
  }
}

TEST(ParallelFl, FedAvgRunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  FedAvgFixture fx;
  auto cfg = fx.config();
  cfg.dropout_prob = 0.3;
  cfg.update_fraction = 0.5;

  parallel::set_num_threads(1);
  fl::FedAvgTrainer serial(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto h1 = serial.run();
  const auto state1 = nn::get_state(serial.global_model());

  parallel::set_num_threads(4);
  fl::FedAvgTrainer threaded(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto h4 = threaded.run();
  const auto state4 = nn::get_state(threaded.global_model());

  expect_identical_histories(h1, h4);
  ASSERT_EQ(state1.size(), state4.size());
  EXPECT_EQ(std::memcmp(state1.data(), state4.data(),
                        state1.size() * sizeof(float)),
            0);
}

TEST(ParallelFl, FedAvgWithChannelBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  FedAvgFixture fx;
  const auto cfg = fx.config();
  const auto chan = channel::make_packet_loss(0.2, 1024);

  parallel::set_num_threads(1);
  fl::FedAvgTrainer serial(fx.factory(), fx.train, fx.parts, fx.test, cfg,
                           chan.get());
  const auto h1 = serial.run();

  parallel::set_num_threads(4);
  fl::FedAvgTrainer threaded(fx.factory(), fx.train, fx.parts, fx.test, cfg,
                             chan.get());
  const auto h4 = threaded.run();
  expect_identical_histories(h1, h4);
}

TEST(ParallelFl, SubsampledUplinkCountsRealScalars) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  FedAvgFixture fx;
  auto cfg = fx.config();
  cfg.rounds = 1;
  cfg.update_fraction = 0.5;
  fl::FedAvgTrainer trainer(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto hist = trainer.run();
  const auto& m = hist.rounds()[0];
  const auto full_bytes = 3ULL *  // 3 delivered clients
                          static_cast<std::uint64_t>(
                              nn::state_size(trainer.global_model())) *
                          sizeof(float);
  // The Bernoulli mask transmits ~half the scalars; the exact count is what
  // must be charged (within a few sigma of the mean), and bits_on_air must
  // reflect the same count, not the full vector.
  EXPECT_GT(m.bytes_uplink, static_cast<std::uint64_t>(0.45 * full_bytes));
  EXPECT_LT(m.bytes_uplink, static_cast<std::uint64_t>(0.55 * full_bytes));
  EXPECT_EQ(m.bits_on_air, 8 * m.bytes_uplink);
  EXPECT_NE(m.bytes_uplink, full_bytes / 2);  // expected-value accounting
}

TEST(ParallelFl, FedHdRunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(31);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 4;
  spec.n = 400;
  spec.separation = 1.0;
  const auto ds = data::make_isolet_like(spec, rng);
  Rng enc_rng = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(32, 512, enc_rng);
  const auto split = data::train_test_split(ds, 0.2, rng);
  const fl::HdClientData test{enc.encode(split.test.x), split.test.labels};
  const auto parts = data::partition_iid(split.train, 6, rng);
  std::vector<fl::HdClientData> clients;
  for (const auto& part : parts) {
    const auto sub = split.train.subset(part);
    clients.push_back({enc.encode(sub.x), sub.labels});
  }
  fl::FedHdConfig cfg;
  cfg.n_clients = 6;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 2;
  cfg.rounds = 3;
  cfg.num_classes = 4;
  cfg.hd_dim = 512;
  cfg.seed = 32;
  cfg.dropout_prob = 0.3;
  cfg.uplink.mode = channel::HdUplinkMode::BitErrors;
  cfg.uplink.ber = 1e-4;

  parallel::set_num_threads(1);
  fl::FedHdTrainer serial(clients, test, cfg);
  const auto h1 = serial.run();
  const Tensor proto1 = serial.global().prototypes();

  parallel::set_num_threads(4);
  fl::FedHdTrainer threaded(clients, test, cfg);
  const auto h4 = threaded.run();

  expect_identical_histories(h1, h4);
  EXPECT_TRUE(bit_identical(proto1, threaded.global().prototypes()));
}

}  // namespace
}  // namespace fhdnn
