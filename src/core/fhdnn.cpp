#include "core/fhdnn.hpp"

#include "tensor/view.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

namespace fhdnn::core {

namespace {

features::FrozenFeatureExtractor::Config extractor_config(
    const FhdnnConfig& c) {
  features::FrozenFeatureExtractor::Config ec;
  ec.in_channels = c.in_channels;
  ec.image_hw = c.image_hw;
  ec.conv_width = c.conv_width;
  ec.output_dim = c.feature_dim;
  ec.seed = c.shared_seed;
  return ec;
}

hdc::RandomProjectionEncoder make_encoder(const FhdnnConfig& c) {
  Rng rng(c.shared_seed);
  Rng enc_rng = rng.fork("hd-projection");
  return hdc::RandomProjectionEncoder(c.feature_dim, c.hd_dim, enc_rng);
}

}  // namespace

FhdnnModel::FhdnnModel(FhdnnConfig config)
    : config_(config),
      extractor_(extractor_config(config)),
      encoder_(make_encoder(config)) {
  FHDNN_CHECK(config_.num_classes > 1 && config_.hd_dim > 0 &&
                  config_.feature_dim > 0,
              "FhdnnConfig invalid");
}

void FhdnnModel::calibrate(const Tensor& images) {
  extractor_.fit_standardization(images);
}

Tensor FhdnnModel::encode_images(const Tensor& images) const {
  // Stage the intermediate features in the thread's arena — only the
  // returned hypervectors own heap storage.
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  const std::int64_t n = images.dim(0);
  TensorView z(ws.floats(n * config_.feature_dim), {n, config_.feature_dim});
  extractor_.extract_into(images, z);
  Tensor h(Shape{n, config_.hd_dim});
  encoder_.encode_into(z, h);
  return h;
}

fl::HdClientData FhdnnModel::encode_dataset(const data::Dataset& ds) const {
  FHDNN_CHECK(ds.is_image(), "encode_dataset expects image data");
  return fl::HdClientData{encode_images(ds.x), ds.labels};
}

}  // namespace fhdnn::core
