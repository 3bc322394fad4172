// Throughput of the bit-packed binary-HD backend vs the scalar float path
// (DESIGN.md §11).
//
// Measures, at the paper's d = 10,000:
//   * float-scalar baseline: HdClassifier::predict (cosine argmax) and
//     hdc::bundle_majority, with the SIMD dispatch pinned to the scalar
//     tier — the golden-oracle cost;
//   * the packed backend per available SIMD tier (scalar popcount, then
//     NEON / AVX2 / AVX-512 where the CPU supports them): pack_rows,
//     classify_packed, bundle_majority_packed;
//   * one end-to-end FedHd round (binary transport) under the best tier.
// The packed representation is 32x smaller and replaces float dot products
// with XOR+popcount, so even its scalar tier should clear the 8x headline
// target against the float baseline; the summary line says whether it did.
// Every path here is pinned bit-exact against the float oracle by
// tests/test_packed.cpp, so this bench is about speed only.
//
// Usage: micro_packed_hd [--d=N] [--classes=N] [--queries=N] [--bundle_n=N]
//                        [--reps=N] [--rounds=N] [--threads=N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fl/fedhd.hpp"
#include "hdc/classifier.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using fhdnn::Rng;
using fhdnn::Shape;
using fhdnn::Tensor;
using fhdnn::util::SimdTier;

/// Defeats dead-code elimination of the measured ops.
volatile std::uint64_t g_sink = 0;

/// Median wall time of one call to `fn`, in ms. The call is repeated in
/// batches that double until a batch takes at least `min_batch_ms`, so
/// microsecond-scale packed ops still get a stable reading; `reps`
/// batches are then measured and the median per-call time returned.
template <typename Fn>
double measure_ms(Fn&& fn, int reps, double min_batch_ms = 40.0) {
  fn();  // warmup (faults in code/data, sizes any lazy buffers)
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms >= min_batch_ms || iters >= (1ULL << 24)) break;
    iters *= 2;
  }
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    samples.push_back(ms / static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct TierResult {
  std::string name;
  double pack_ms;
  double classify_ms;
  double bundle_ms;
};

}  // namespace

int main(int argc, char** argv) {
  fhdnn::bench::init();
  fhdnn::CliFlags flags;
  flags.define_int("d", 10'000, "hypervector dimensionality");
  flags.define_int("classes", 10, "number of class prototypes");
  flags.define_int("queries", 200, "query batch size for classification");
  flags.define_int("bundle_n", 33, "members per majority bundle");
  flags.define_int("reps", 15, "timing repetitions (median reported)");
  flags.define_int("rounds", 3, "FedHd rounds for the end-to-end timing");
  flags.define_int("threads", 1, "thread-pool width");
  if (!flags.parse(argc, argv)) return 0;
  const std::int64_t d = flags.get_int("d");
  const std::int64_t classes = flags.get_int("classes");
  const std::int64_t queries = flags.get_int("queries");
  const std::int64_t bundle_n = flags.get_int("bundle_n");
  const int reps = static_cast<int>(flags.get_int("reps"));
  const int fed_rounds = std::max(1, static_cast<int>(flags.get_int("rounds")));
  const int threads = static_cast<int>(flags.get_int("threads"));
  if (reps < 1) {
    std::cerr << "micro_packed_hd: --reps must be at least 1, got " << reps
              << "\n";
    return 2;
  }

  fhdnn::parallel::set_num_threads(threads);
  fhdnn::print_banner(std::cout, "micro: packed binary-HD throughput");
  fhdnn::bench::print_config_line(
      "d=" + std::to_string(d) + " classes=" + std::to_string(classes) +
      " queries=" + std::to_string(queries) +
      " bundle_n=" + std::to_string(bundle_n) +
      " reps=" + std::to_string(reps) + " threads=" + std::to_string(threads) +
      " detected=" +
      std::string(
          fhdnn::util::simd_tier_name(fhdnn::util::detected_simd())));

  // Shared workload: bipolar prototypes and queries, so the float and
  // packed paths classify the *same* vectors, plus bundle_n bundle members.
  Rng rng(23);
  const Tensor protos_f =
      fhdnn::hdc::sign(Tensor::randn(Shape{classes, d}, rng));
  const Tensor queries_f =
      fhdnn::hdc::sign(Tensor::randn(Shape{queries, d}, rng));
  const fhdnn::hdc::PackedModel protos_p = fhdnn::hdc::pack_rows(protos_f);
  const fhdnn::hdc::PackedModel queries_p = fhdnn::hdc::pack_rows(queries_f);
  std::vector<Tensor> members_f;
  std::vector<fhdnn::hdc::PackedHV> members_p;
  for (std::int64_t i = 0; i < bundle_n; ++i) {
    members_f.push_back(fhdnn::hdc::random_bipolar(d, rng));
    members_p.push_back(fhdnn::hdc::pack_hv(members_f.back()));
  }
  fhdnn::hdc::HdClassifier clf(classes, d);
  clf.set_prototypes(protos_f);

  // Float-scalar baseline: the oracle path, dispatch pinned to scalar.
  fhdnn::util::set_simd_tier(SimdTier::Scalar);
  const double float_classify_ms = measure_ms(
      [&] { g_sink = g_sink + static_cast<std::uint64_t>(clf.predict(queries_f)[0]); },
      reps);
  const double float_bundle_ms = measure_ms(
      [&] {
        g_sink = g_sink + static_cast<std::uint64_t>(
            fhdnn::hdc::bundle_majority(members_f).numel());
      },
      reps);

  // Packed backend per available tier.
  std::vector<TierResult> tier_results;
  for (SimdTier t : fhdnn::util::available_simd_tiers()) {
    fhdnn::util::set_simd_tier(t);
    TierResult r;
    r.name = std::string(fhdnn::util::simd_tier_name(t));
    r.pack_ms = measure_ms(
        [&] { g_sink = g_sink + fhdnn::hdc::pack_rows(queries_f).words[0]; }, reps);
    r.classify_ms = measure_ms(
        [&] {
          g_sink = g_sink + static_cast<std::uint64_t>(
              fhdnn::hdc::classify_packed(protos_p, queries_p)[0]);
        },
        reps);
    r.bundle_ms = measure_ms(
        [&] {
          g_sink = g_sink + fhdnn::hdc::bundle_majority_packed(members_p).words[0];
        },
        reps);
    tier_results.push_back(r);
  }
  fhdnn::util::set_simd_tier(fhdnn::util::detected_simd());

  // End-to-end FedHd round (binary transport) under the best tier.
  fhdnn::fl::FedHdConfig cfg;
  cfg.n_clients = 8;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 1;
  cfg.rounds = fed_rounds;
  cfg.num_classes = classes;
  cfg.hd_dim = d;
  cfg.seed = 7;
  cfg.uplink.mode = fhdnn::channel::HdUplinkMode::BitErrors;
  cfg.uplink.ber = 1e-3;
  cfg.uplink.binary_transport = true;
  std::vector<fhdnn::fl::HdClientData> clients;
  Rng data_rng(29);
  for (std::size_t c = 0; c < cfg.n_clients; ++c) {
    fhdnn::fl::HdClientData cd;
    cd.h = Tensor::randn(Shape{64, d}, data_rng);
    for (int i = 0; i < 64; ++i) {
      cd.labels.push_back(data_rng.randint(0, classes - 1));
    }
    clients.push_back(std::move(cd));
  }
  fhdnn::fl::HdClientData test;
  test.h = Tensor::randn(Shape{128, d}, data_rng);
  for (int i = 0; i < 128; ++i) {
    test.labels.push_back(data_rng.randint(0, classes - 1));
  }
  fhdnn::fl::FedHdTrainer trainer(clients, test, cfg);
  std::vector<double> round_ms;
  for (int r = 0; r < fed_rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)trainer.round(r);
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  std::sort(round_ms.begin(), round_ms.end());
  const double fedhd_round_ms = round_ms[round_ms.size() / 2];

  // Report. Speedups are against the float-scalar oracle.
  fhdnn::TextTable table(
      {"path", "pack_ms", "classify_ms", "bundle_ms", "classify_speedup",
       "bundle_speedup"});
  table.add_row({"float_scalar", "-", fhdnn::TextTable::cell(float_classify_ms),
                 fhdnn::TextTable::cell(float_bundle_ms), "1", "1"});
  for (const auto& r : tier_results) {
    table.add_row({"packed_" + r.name, fhdnn::TextTable::cell(r.pack_ms),
                   fhdnn::TextTable::cell(r.classify_ms),
                   fhdnn::TextTable::cell(r.bundle_ms),
                   fhdnn::TextTable::cell(float_classify_ms / r.classify_ms),
                   fhdnn::TextTable::cell(float_bundle_ms / r.bundle_ms)});
  }
  table.print(std::cout);
  const TierResult& best = tier_results.back();
  const double classify_speedup = float_classify_ms / best.classify_ms;
  const double bundle_speedup = float_bundle_ms / best.bundle_ms;
  const bool meets_target = classify_speedup >= 8.0 && bundle_speedup >= 8.0;
  std::cout << "best tier " << best.name << ": classify " << classify_speedup
            << "x, bundle " << bundle_speedup
            << "x vs scalar float (target >= 8x: "
            << (meets_target ? "met" : "MISSED") << ")\n"
            << "fedhd round (binary transport, best tier): " << fedhd_round_ms
            << " ms\n\n";

  fhdnn::CsvWriter csv(std::cout, {"path", "pack_ms", "classify_ms",
                                   "bundle_ms"});
  csv.add("float_scalar")
      .add(0.0)
      .add(float_classify_ms)
      .add(float_bundle_ms)
      .end_row();
  for (const auto& r : tier_results) {
    csv.add("packed_" + r.name)
        .add(r.pack_ms)
        .add(r.classify_ms)
        .add(r.bundle_ms)
        .end_row();
  }

  return 0;
}
