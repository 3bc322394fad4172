#include "nn/serialize.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fhdnn::nn {

std::vector<Tensor*> state_tensors(Module& model) {
  std::vector<Tensor*> out;
  for (Parameter* p : model.parameters()) out.push_back(&p->value);
  for (Tensor* b : model.buffers()) out.push_back(b);
  return out;
}

std::int64_t state_size(Module& model) {
  std::int64_t n = 0;
  for (const Tensor* t : state_tensors(model)) n += t->numel();
  return n;
}

std::vector<float> get_state(Module& model) {
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(state_size(model)));
  for (const Tensor* t : state_tensors(model)) {
    const auto d = t->data();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

void set_state(Module& model, const std::vector<float>& state) {
  FHDNN_CHECK(static_cast<std::int64_t>(state.size()) == state_size(model),
              "set_state size " << state.size() << " != model state "
                                << state_size(model));
  std::size_t off = 0;
  for (Tensor* t : state_tensors(model)) {
    auto d = t->data();
    std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(off), d.size(),
                d.begin());
    off += d.size();
  }
}

void copy_state(const std::vector<Tensor*>& src,
                const std::vector<Tensor*>& dst) {
  FHDNN_CHECK(src.size() == dst.size(),
              "copy_state between " << src.size() << " and " << dst.size()
                                    << " state tensors");
  for (std::size_t i = 0; i < src.size(); ++i) {
    FHDNN_CHECK(src[i]->numel() == dst[i]->numel(),
                "copy_state tensor " << i << " sizes differ");
    const auto d = src[i]->data();
    std::copy(d.begin(), d.end(), dst[i]->data().begin());
  }
}

}  // namespace fhdnn::nn
