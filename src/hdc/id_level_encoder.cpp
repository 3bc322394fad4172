#include "hdc/id_level_encoder.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace fhdnn::hdc {

IdLevelEncoder::IdLevelEncoder(std::int64_t feature_dim, std::int64_t hd_dim,
                               std::int64_t levels, float lo, float hi,
                               Rng& rng)
    : n_(feature_dim),
      d_(hd_dim),
      q_(levels),
      lo_(lo),
      hi_(hi),
      ids_(Shape{feature_dim, hd_dim}),
      levels_(Shape{levels, hd_dim}) {
  FHDNN_CHECK(n_ > 0 && d_ > 0 && q_ >= 2, "IdLevelEncoder(n=" << n_ << ", d="
                                                               << d_ << ", Q="
                                                               << q_ << ")");
  FHDNN_CHECK(lo_ < hi_, "level range [" << lo_ << ", " << hi_ << ")");
  Rng id_rng = rng.fork("ids");
  for (auto& v : ids_.data()) v = id_rng.bernoulli(0.5) ? 1.0F : -1.0F;

  // L_0 random; each next level flips d/(2(Q-1)) not-yet-flipped positions,
  // so L_0 and L_{Q-1} differ in ~half the positions (~orthogonal).
  Rng lvl_rng = rng.fork("levels");
  for (std::int64_t j = 0; j < d_; ++j) {
    levels_(0, j) = lvl_rng.bernoulli(0.5) ? 1.0F : -1.0F;
  }
  std::vector<std::size_t> order(static_cast<std::size_t>(d_));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  lvl_rng.shuffle(order);
  const std::int64_t flips_per_level =
      std::max<std::int64_t>(1, d_ / (2 * (q_ - 1)));
  std::size_t cursor = 0;
  for (std::int64_t q = 1; q < q_; ++q) {
    for (std::int64_t j = 0; j < d_; ++j) levels_(q, j) = levels_(q - 1, j);
    for (std::int64_t f = 0; f < flips_per_level && cursor < order.size();
         ++f, ++cursor) {
      const auto j = static_cast<std::int64_t>(order[cursor]);
      levels_(q, j) = -levels_(q, j);
    }
  }
}

std::int64_t IdLevelEncoder::quantize(float value) const {
  const float clamped = std::clamp(value, lo_, hi_);
  const double t = (clamped - lo_) / (hi_ - lo_);
  const auto q = static_cast<std::int64_t>(t * static_cast<double>(q_));
  return std::min(q, q_ - 1);
}

Tensor IdLevelEncoder::encode(const Tensor& z) const {
  const bool batched = z.ndim() == 2;
  FHDNN_CHECK(batched || z.ndim() == 1,
              "encode expects (n) or (N, n), got " << shape_to_string(z.shape()));
  const Tensor zz = batched ? z : z.reshaped(Shape{1, n_});
  FHDNN_CHECK(zz.dim(1) == n_, "feature dim " << zz.dim(1) << " != encoder n "
                                              << n_);
  const std::int64_t n_rows = zz.dim(0);
  Tensor h(Shape{n_rows, d_});
  std::vector<double> acc(static_cast<std::size_t>(d_));
  for (std::int64_t r = 0; r < n_rows; ++r) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::int64_t i = 0; i < n_; ++i) {
      const std::int64_t q = quantize(zz(r, i));
      for (std::int64_t j = 0; j < d_; ++j) {
        acc[static_cast<std::size_t>(j)] +=
            static_cast<double>(ids_(i, j)) * levels_(q, j);
      }
    }
    for (std::int64_t j = 0; j < d_; ++j) {
      h(r, j) = acc[static_cast<std::size_t>(j)] >= 0.0 ? 1.0F : -1.0F;
    }
  }
  return batched ? h : h.reshaped(Shape{d_});
}

}  // namespace fhdnn::hdc
