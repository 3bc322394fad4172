#include "data/dataset.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fhdnn::data {

void Dataset::check() const {
  FHDNN_CHECK(x.ndim() == 2 || x.ndim() == 4,
              "dataset tensor must be (N,F) or (N,C,H,W), got "
                  << shape_to_string(x.shape()));
  FHDNN_CHECK(x.dim(0) == size(),
              "dataset has " << x.dim(0) << " examples but " << labels.size()
                             << " labels");
  FHDNN_CHECK(num_classes > 0, "dataset num_classes " << num_classes);
  for (const auto y : labels) {
    FHDNN_CHECK(y >= 0 && y < num_classes,
                "label " << y << " out of range " << num_classes);
  }
}

std::int64_t Dataset::example_numel() const {
  FHDNN_CHECK(size() > 0, "empty dataset");
  return x.numel() / size();
}

Dataset::Batch Dataset::gather(const std::vector<std::size_t>& indices) const {
  FHDNN_CHECK(!indices.empty(), "gather with no indices");
  const std::int64_t per = example_numel();
  Shape shape = x.shape();
  shape[0] = static_cast<std::int64_t>(indices.size());
  Batch b{Tensor(shape), {}};
  b.labels.reserve(indices.size());
  const auto src = x.data();
  auto dst = b.x.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t idx = indices[i];
    FHDNN_CHECK(idx < labels.size(), "gather index " << idx << " out of range");
    std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(idx * per), per,
                dst.begin() + static_cast<std::ptrdiff_t>(i * per));
    b.labels.push_back(labels[idx]);
  }
  return b;
}

Dataset::Batch Dataset::all() const {
  std::vector<std::size_t> idx(static_cast<std::size_t>(size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return gather(idx);
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Batch b = gather(indices);
  return Dataset{std::move(b.x), std::move(b.labels), num_classes, name};
}

TrainTestSplit train_test_split(const Dataset& ds, double test_fraction,
                                Rng& rng) {
  FHDNN_CHECK(test_fraction > 0.0 && test_fraction < 1.0,
              "test_fraction " << test_fraction);
  const auto n = static_cast<std::size_t>(ds.size());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  const auto n_test = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * test_fraction));
  FHDNN_CHECK(n_test < n, "test split consumes the whole dataset");
  std::vector<std::size_t> test_idx(order.begin(),
                                    order.begin() + static_cast<std::ptrdiff_t>(n_test));
  std::vector<std::size_t> train_idx(order.begin() + static_cast<std::ptrdiff_t>(n_test),
                                     order.end());
  return TrainTestSplit{ds.subset(train_idx), ds.subset(test_idx)};
}

BatchIterator::BatchIterator(std::size_t n, std::size_t batch_size, Rng& rng)
    : batch_size_(batch_size), order_(n) {
  FHDNN_CHECK(batch_size > 0, "batch size must be positive");
  for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  rng.shuffle(order_);
}

std::vector<std::size_t> BatchIterator::next() {
  if (done()) return {};
  const std::size_t end = std::min(cursor_ + batch_size_, order_.size());
  std::vector<std::size_t> batch(order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                 order_.begin() + static_cast<std::ptrdiff_t>(end));
  cursor_ = end;
  return batch;
}

void BatchIterator::reset(Rng& rng) {
  rng.shuffle(order_);
  cursor_ = 0;
}

}  // namespace fhdnn::data
