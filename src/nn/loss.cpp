#include "nn/loss.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fhdnn::nn {

double CrossEntropyLoss::forward(const Tensor& logits,
                                 const std::vector<std::int64_t>& labels) {
  FHDNN_CHECKED_TENSOR(logits);
  FHDNN_CHECK(logits.ndim() == 2, "CrossEntropy expects 2-d logits");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == n,
              "CrossEntropy labels size " << labels.size() << " != batch " << n);
  cached_probs_.ensure_shape(logits.shape());
  ops::softmax_rows_into(logits, cached_probs_);
  cached_labels_ = labels;
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    FHDNN_CHECK(y >= 0 && y < c, "label " << y << " out of range " << c);
    loss -= std::log(std::max(1e-12F, cached_probs_(i, y)));
  }
  return loss / static_cast<double>(n);
}

const Tensor& CrossEntropyLoss::backward() {
  FHDNN_CHECKED_TENSOR(cached_probs_);
  FHDNN_CHECK(cached_probs_.numel() > 1, "backward before forward");
  const std::int64_t n = cached_probs_.dim(0);
  grad_ = cached_probs_;
  for (std::int64_t i = 0; i < n; ++i) {
    grad_(i, cached_labels_[static_cast<std::size_t>(i)]) -= 1.0F;
  }
  grad_.scale(1.0F / static_cast<float>(n));
  return grad_;
}

double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  FHDNN_CHECK(logits.ndim() == 2 &&
                  logits.dim(0) == static_cast<std::int64_t>(labels.size()),
              "accuracy size mismatch");
  std::vector<std::int64_t> preds(labels.size());
  ops::argmax_rows_into(logits, preds);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

}  // namespace fhdnn::nn
