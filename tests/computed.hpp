// The one bridge in the tests from an `_into` kernel to a value: allocate
// the output, let the kernel write it, return it. Kernels have no
// value-returning forms, so a test that wants a result to compare calls
//   computed({m, n}, [&](Tensor& out) { ops::matmul_into(a, b, out); })
#pragma once

#include <utility>

#include "tensor/tensor.hpp"

namespace fhdnn {

/// A zeroed Tensor of `shape` after `kernel(out)` wrote it.
template <typename Kernel>
Tensor computed(Shape shape, Kernel&& kernel) {
  Tensor out(std::move(shape));
  std::forward<Kernel>(kernel)(out);
  return out;
}

}  // namespace fhdnn
