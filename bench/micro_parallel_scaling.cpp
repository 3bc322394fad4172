// Thread-scaling microbench: wall-clock speedup of the parallel tensor
// kernels and a full FedAvg round as the pool width grows, plus a
// bit-identity check of every measured result against the serial schedule.
//
// Usage: micro_parallel_scaling [--max-threads=N] [--reps=N]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/fedavg.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using fhdnn::Rng;
using fhdnn::Shape;
using fhdnn::Tensor;

/// Median-of-reps wall time of `fn` in seconds.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

template <typename SeqA, typename SeqB>
bool same_bits(const SeqA& a, const SeqB& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct FedAvgSetup {
  fhdnn::data::Dataset train, test;
  fhdnn::data::ClientIndices parts;
  fhdnn::fl::FedAvgConfig cfg;

  FedAvgSetup() {
    Rng rng(7);
    auto full = fhdnn::data::synthetic_mnist(600, rng);
    auto split = fhdnn::data::train_test_split(full, 0.2, rng);
    train = std::move(split.train);
    test = std::move(split.test);
    parts = fhdnn::data::partition_iid(train, 8, rng);
    cfg.n_clients = 8;
    cfg.client_fraction = 1.0;  // all 8 clients participate
    cfg.local_epochs = 1;
    cfg.batch_size = 32;
    cfg.rounds = 1;
    cfg.eval_every = 1000;  // keep evaluation out of the measured round
    cfg.seed = 8;
  }

  fhdnn::fl::ModelFactory factory() const {
    return [](Rng& rng) { return fhdnn::nn::make_cnn2(1, 28, 10, rng); };
  }

  std::vector<float> run_round() const {
    fhdnn::fl::FedAvgTrainer trainer(factory(), train, parts, test, cfg);
    (void)trainer.round(1);
    return fhdnn::nn::get_state(trainer.global_model());
  }
};

struct ScalingRow {
  std::string workload;
  int threads;
  double median_ms;
  double speedup;
  bool bit_identical;
};

}  // namespace

int main(int argc, char** argv) {
  fhdnn::bench::init();
  fhdnn::CliFlags flags;
  flags.define_int("max-threads", std::max(4, fhdnn::parallel::num_threads()),
                   "largest pool width to measure (doubling from 1)");
  flags.define_int("reps", 3, "repetitions per timing (median reported)");
  if (!flags.parse(argc, argv)) return 0;
  const int max_threads = static_cast<int>(flags.get_int("max-threads"));
  const int reps = static_cast<int>(flags.get_int("reps"));
  if (reps < 1) {
    std::cerr << "micro_parallel_scaling: --reps must be at least 1, got "
              << reps << "\n";
    return 2;
  }

  fhdnn::print_banner(std::cout, "micro: parallel_for thread scaling");
  fhdnn::bench::print_config_line(
      "matmul 512x512, FedAvg round (8 clients, cnn2, synthetic MNIST); "
      "reps=" + std::to_string(reps) +
      " max_threads=" + std::to_string(max_threads) +
      " hw_concurrency=" +
      // Reporting only — hardware_concurrency() spawns nothing.
      // fhdnn-lint: allow(raw-thread)
      std::to_string(std::thread::hardware_concurrency()));

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  std::vector<ScalingRow> rows;

  // --- matmul 512x512 ---------------------------------------------------
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{512, 512}, rng);
  const Tensor b = Tensor::randn(Shape{512, 512}, rng);
  fhdnn::parallel::set_num_threads(1);
  Tensor reference(Shape{512, 512});
  fhdnn::ops::matmul_into(a, b, reference);
  double matmul_serial = 0.0;
  for (const int t : thread_counts) {
    fhdnn::parallel::set_num_threads(t);
    Tensor c(Shape{512, 512});
    const double sec =
        time_median(reps, [&] { fhdnn::ops::matmul_into(a, b, c); });
    if (t == 1) matmul_serial = sec;
    rows.push_back({"matmul512", t, sec * 1e3, matmul_serial / sec,
                    same_bits(c.data(), reference.data())});
  }

  // --- one FedAvg round -------------------------------------------------
  const FedAvgSetup setup;
  fhdnn::parallel::set_num_threads(1);
  const std::vector<float> ref_state = setup.run_round();
  double round_serial = 0.0;
  for (const int t : thread_counts) {
    fhdnn::parallel::set_num_threads(t);
    std::vector<float> state;
    const double sec = time_median(reps, [&] { state = setup.run_round(); });
    if (t == 1) round_serial = sec;
    rows.push_back({"fedavg_round", t, sec * 1e3, round_serial / sec,
                    same_bits(state, ref_state)});
  }

  fhdnn::TextTable table(
      {"workload", "threads", "median_ms", "speedup", "bit_identical"});
  for (const auto& r : rows) {
    table.add_row({r.workload, fhdnn::TextTable::cell(r.threads),
                   fhdnn::TextTable::cell(r.median_ms),
                   fhdnn::TextTable::cell(r.speedup),
                   r.bit_identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\n";
  fhdnn::CsvWriter csv(
      std::cout, {"workload", "threads", "median_ms", "speedup", "bit_identical"});
  for (const auto& r : rows) {
    csv.add(r.workload)
        .add(r.threads)
        .add(r.median_ms)
        .add(r.speedup)
        .add(r.bit_identical ? 1 : 0)
        .end_row();
  }
  std::cout << "note: speedup saturates at the machine's physical core count; "
               "FHDNN_THREADS=1 is the exact serial fallback.\n";
  return 0;
}
