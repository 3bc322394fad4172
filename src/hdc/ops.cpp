#include "hdc/ops.hpp"

#include "util/error.hpp"

namespace fhdnn::hdc {

Tensor random_bipolar(std::int64_t d, Rng& rng) {
  FHDNN_CHECK(d > 0, "random_bipolar d=" << d);
  Tensor v(Shape{d});
  for (auto& x : v.data()) x = rng.bernoulli(0.5) ? 1.0F : -1.0F;
  return v;
}

Tensor bind(const Tensor& a, const Tensor& b) {
  FHDNN_CHECK(a.same_shape(b), "bind shape mismatch: "
                                   << shape_to_string(a.shape()) << " vs "
                                   << shape_to_string(b.shape()));
  Tensor c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] *= bd[i];
  return c;
}

Tensor bundle(const std::vector<Tensor>& vs) {
  FHDNN_CHECK(!vs.empty(), "bundle of nothing");
  Tensor acc = vs.front();
  for (std::size_t i = 1; i < vs.size(); ++i) acc.axpy(1.0F, vs[i]);
  return acc;
}

Tensor bundle_majority(const std::vector<Tensor>& vs) {
  Tensor acc = bundle(vs);
  auto d = acc.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] > 0.0F) {
      d[i] = 1.0F;
    } else if (d[i] < 0.0F) {
      d[i] = -1.0F;
    } else {
      // Tied vote: index-parity rule (see header) instead of sign()'s
      // blanket 0 -> +1, which would bias even-count bundles.
      d[i] = (i % 2 == 0) ? 1.0F : -1.0F;
    }
  }
  return acc;
}

Tensor sign(const Tensor& v) {
  Tensor out = v;
  for (auto& x : out.data()) x = (x >= 0.0F) ? 1.0F : -1.0F;
  return out;
}

}  // namespace fhdnn::hdc
