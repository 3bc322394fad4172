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

/// Copy all parameters/buffers from `src` into `dst` (same architecture).
void copy_state(Module& src, Module& dst);

}  // namespace fhdnn::nn
