// Google-benchmark micro benches for the HDC primitives: encode, bundle,
// refine, similarity, quantize — the operations whose lightness underpins
// the paper's client-compute claims (Table 1).
#include <benchmark/benchmark.h>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/quantizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace fhdnn;

constexpr std::int64_t kFeatures = 256;
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kBatch = 32;

const hdc::RandomProjectionEncoder& encoder(std::int64_t d) {
  static std::map<std::int64_t, hdc::RandomProjectionEncoder> cache;
  auto it = cache.find(d);
  if (it == cache.end()) {
    Rng rng(1);
    it = cache.emplace(d, hdc::RandomProjectionEncoder(kFeatures, d, rng))
             .first;
  }
  return it->second;
}

Tensor features_batch() {
  Rng rng(2);
  return Tensor::randn(Shape{kBatch, kFeatures}, rng);
}

void BM_Encode(benchmark::State& state) {
  const auto d = state.range(0);
  const auto& enc = encoder(d);
  const Tensor z = features_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(z));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Encode)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_Bundle(benchmark::State& state) {
  const auto d = state.range(0);
  const auto& enc = encoder(d);
  const Tensor h = enc.encode(features_batch());
  std::vector<std::int64_t> labels(kBatch);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % kClasses);
  }
  for (auto _ : state) {
    hdc::HdClassifier clf(kClasses, d);
    clf.bundle(h, labels);
    benchmark::DoNotOptimize(clf.prototypes());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Bundle)->Arg(1024)->Arg(4096)->Arg(10000);

// Args are {d, K}; K = 26 (ISOLET's class count) spans more class lanes
// than one 16-lane register.
void BM_RefineEpoch(benchmark::State& state) {
  const auto d = state.range(0);
  const auto k = state.range(1);
  const auto& enc = encoder(d);
  const Tensor h = enc.encode(features_batch());
  std::vector<std::int64_t> labels(kBatch);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % k;
  }
  hdc::HdClassifier clf(k, d);
  clf.bundle(h, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.refine_epoch(h, labels));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_RefineEpoch)
    ->Args({1024, kClasses})
    ->Args({4096, kClasses})
    ->Args({10000, kClasses})
    ->Args({10000, 26});

void BM_Similarities(benchmark::State& state) {
  const auto d = state.range(0);
  const auto k = state.range(1);
  const auto& enc = encoder(d);
  const Tensor h = enc.encode(features_batch());
  std::vector<std::int64_t> labels(kBatch);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % k;
  }
  hdc::HdClassifier clf(k, d);
  clf.bundle(h, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.similarities(h));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Similarities)
    ->Args({1024, kClasses})
    ->Args({4096, kClasses})
    ->Args({10000, kClasses})
    ->Args({10000, 26});

void BM_QuantizeRows(benchmark::State& state) {
  const auto d = state.range(0);
  Rng rng(3);
  const Tensor protos = Tensor::randn(Shape{kClasses, d}, rng, 10.0F);
  const hdc::Quantizer quant(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant.quantize_rows(protos));
  }
  state.SetItemsProcessed(state.iterations() * kClasses * d);
}
BENCHMARK(BM_QuantizeRows)->Arg(1024)->Arg(10000);

void BM_DequantizeRows(benchmark::State& state) {
  const auto d = state.range(0);
  Rng rng(3);
  const Tensor protos = Tensor::randn(Shape{kClasses, d}, rng, 10.0F);
  const hdc::Quantizer quant(16);
  const auto rows = quant.quantize_rows(protos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant.dequantize_rows(rows, d));
  }
  state.SetItemsProcessed(state.iterations() * kClasses * d);
}
BENCHMARK(BM_DequantizeRows)->Arg(1024)->Arg(10000);

void BM_Reconstruct(benchmark::State& state) {
  const auto d = state.range(0);
  const auto& enc = encoder(d);
  const Tensor h = enc.encode_linear(features_batch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.reconstruct(h));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Reconstruct)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
