#include "nn/serialize.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fhdnn::nn {

std::int64_t state_size(Module& model) {
  std::int64_t n = 0;
  for (const Parameter* p : model.parameters()) n += p->value.numel();
  for (Tensor* b : model.buffers()) n += b->numel();
  return n;
}

std::vector<float> get_state(Module& model) {
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(state_size(model)));
  for (Parameter* p : model.parameters()) {
    const auto d = p->value.data();
    out.insert(out.end(), d.begin(), d.end());
  }
  for (Tensor* b : model.buffers()) {
    const auto d = b->data();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

void set_state(Module& model, const std::vector<float>& state) {
  FHDNN_CHECK(static_cast<std::int64_t>(state.size()) == state_size(model),
              "set_state size " << state.size() << " != model state "
                                << state_size(model));
  std::size_t off = 0;
  for (Parameter* p : model.parameters()) {
    auto d = p->value.data();
    std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(off), d.size(),
                d.begin());
    off += d.size();
  }
  for (Tensor* b : model.buffers()) {
    auto d = b->data();
    std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(off), d.size(),
                d.begin());
    off += d.size();
  }
}

void copy_state(Module& src, Module& dst) {
  set_state(dst, get_state(src));
}

}  // namespace fhdnn::nn
