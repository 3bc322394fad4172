#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "data/synthetic.hpp"
#include "env.hpp"
#include "measure.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "perf/model_macs.hpp"
#include "util/error.hpp"
#include "util/snapshot.hpp"
#include "util/workspace.hpp"
#include "wire/messages.hpp"
#include "bench_workload.hpp"

namespace perfbench {

PaperData make_paper_data(std::uint64_t seed, std::int64_t per_client,
                          std::int64_t test) {
  fhdnn::Rng rng(seed);
  PaperData d;
  const std::int64_t train = per_client * static_cast<std::int64_t>(kPaperClients);
  auto full = fhdnn::data::synthetic_mnist(train + test, rng);
  auto split = fhdnn::data::train_test_split(
      full, static_cast<double>(test) / static_cast<double>(train + test), rng);
  d.train = std::move(split.train);
  d.test = std::move(split.test);
  d.parts = fhdnn::data::partition_iid(d.train, kPaperClients, rng);
  return d;
}

double median_ms(const std::function<void()>& fn, int min_reps,
                 double min_seconds) {
  std::vector<double> ms;
  const std::int64_t start = Tracer::now_ns();
  while (static_cast<int>(ms.size()) < min_reps ||
         static_cast<double>(Tracer::now_ns() - start) * 1e-9 < min_seconds) {
    const std::int64_t t0 = Tracer::now_ns();
    fn();
    ms.push_back(static_cast<double>(Tracer::now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

std::string checkpoint_path(const std::string& tag) {
  return output_dir() + "/" + tag + ".ckpt";
}

void remove_checkpoint(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".prev", ec);
  std::filesystem::remove(path + ".tmp", ec);
}

bool same_file_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::vector<char> da((std::istreambuf_iterator<char>(fa)), {});
  const std::vector<char> db((std::istreambuf_iterator<char>(fb)), {});
  return da == db;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void probe_hd(const fhdnn::hdc::HdClassifier& global,
              const fhdnn::fl::HdClientData& shard,
              const fhdnn::fl::HdClientData& test,
              const fhdnn::channel::HdUplinkConfig& uplink, LayerMetrics& out) {
  out["hdc.refine_us_per_sample"] =
      1e3 * median_ms([&] {
        fhdnn::hdc::HdClassifier local = global;
        (void)local.refine_epoch(shard.h, shard.labels);
      }) /
      static_cast<double>(shard.labels.size());
  out["hdc.similarity_us_per_query"] =
      1e3 * median_ms([&] { (void)global.similarities(test.h); }) /
      static_cast<double>(test.labels.size());
  out["channel.transmit_ms"] = median_ms([&] {
    fhdnn::Tensor update = global.prototypes();
    fhdnn::Rng rng(7);
    (void)fhdnn::channel::transmit_hd_model(update, uplink, rng);
  });
}

void probe_cnn2_step(LayerMetrics& out) {
  constexpr std::int64_t kBatch = 10;
  fhdnn::Rng rng(11);
  const fhdnn::data::Dataset batch = fhdnn::data::synthetic_mnist(kBatch, rng);
  auto model = fhdnn::nn::make_cnn2(1, 28, 10, rng);
  model->set_training(true);
  fhdnn::nn::Sgd opt(*model, {0.05F, 0.9F, 0.0F});
  fhdnn::nn::CrossEntropyLoss loss_fn;
  out["nn.step_ms"] = median_ms([&] {
    fhdnn::util::tls_workspace().reset();
    opt.zero_grad();
    const fhdnn::Tensor& logits = model->forward(batch.x);
    (void)loss_fn.forward(logits, batch.labels);
    model->backward(loss_fn.backward());
    opt.step();
  });
  out["nn.step_macs"] =
      3.0 * static_cast<double>(fhdnn::perf::cnn2_fwd_macs(1, 28, 10)) *
      static_cast<double>(kBatch);
}

void probe_wire(fhdnn::fl::RoundProtocol& protocol, std::size_t slots,
                LayerMetrics& out) {
  fhdnn::util::SnapshotWriter w;
  w.begin_chunk("PROT");
  protocol.save_state(w);
  w.end_chunk();
  fhdnn::wire::RoundAssignMsg msg;
  msg.round_index = 1;
  msg.n_participants = slots;
  msg.state_blob = w.finish();
  for (std::size_t s = 0; s < slots; ++s) msg.slots.push_back({s, s});

  std::vector<std::uint8_t> bytes;
  out["wire.assign_encode_ms"] = median_ms([&] {
    const fhdnn::wire::Frame f = msg.to_frame();
    bytes = fhdnn::wire::encode_frame(f.type, f.payload);
  });
  std::size_t decoded_blob = 0;
  out["wire.assign_decode_ms"] = median_ms([&] {
    const fhdnn::wire::Frame f =
        fhdnn::wire::decode_frame(bytes.data(), bytes.size());
    decoded_blob = fhdnn::wire::RoundAssignMsg::from_frame(f).state_blob.size();
  });
  FHDNN_CHECK(decoded_blob == msg.state_blob.size(),
              "wire probe: decoded state blob has " << decoded_blob
                                                    << " bytes, sent "
                                                    << msg.state_blob.size());
}

}  // namespace perfbench
