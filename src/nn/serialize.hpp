// Flattening of model state for federated aggregation and channel transport.
//
// A model's transmissible state is the concatenation of all parameter values
// followed by all buffers, in traversal order. Two models built by the same
// factory with the same configuration have identical layouts, so flat
// vectors can be averaged elementwise (FedAvg) or corrupted bit-by-bit
// (channel models) and loaded back.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace fhdnn::nn {

/// Total scalars serialized for `model` (parameters + buffers).
std::int64_t state_size(Module& model);

/// Copy parameters + buffers into one flat vector.
std::vector<float> get_state(Module& model);

/// Load a flat vector produced by get_state (layout must match).
void set_state(Module& model, const std::vector<float>& state);

/// The tensors that make up `model`'s state, in get_state order: the
/// parameter values, then the buffers. The pointers stay valid for the
/// model's lifetime, so a caller that copies states often gathers them
/// once.
std::vector<Tensor*> state_tensors(Module& model);

/// Copy every state tensor of `src` into the matching one of `dst`, two
/// state_tensors lists of the same architecture. Allocates nothing.
void copy_state(const std::vector<Tensor*>& src,
                const std::vector<Tensor*>& dst);

}  // namespace fhdnn::nn
