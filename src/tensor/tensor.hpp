// Dense row-major float32 tensor.
//
// This is the numeric substrate for the CNN baselines and the HD encoder.
// Scope is deliberately small: contiguous storage, up to 4 dimensions in
// practice (N, C, H, W), value semantics, and bounds-checked indexing.
// Heavy math lives in tensor/ops.hpp and tensor/conv.hpp as free functions.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fhdnn {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for the empty shape). Throws
/// fhdnn::Error on non-positive dims and on int64 overflow of the product.
std::int64_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" style rendering for diagnostics.
std::string shape_to_string(const Shape& shape);

class Rng;

/// Contiguous row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty 0-d tensor holding a single zero. (Convenient as a default.)
  Tensor();

  /// Zero-initialized tensor of the given shape. All dims must be positive.
  explicit Tensor(Shape shape);

  /// Tensor with the given shape adopting `values` (size must match).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// I.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0F);
  /// I.i.d. U[lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0F, float hi = 1.0F);
  /// 1-d tensor from an explicit list.
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  /// Size of dimension i; negative i counts from the back.
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  /// Mutable raw vector access (for serialization layers).
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// Flat element access, bounds-checked.
  float& at(std::int64_t i);
  float at(std::int64_t i) const;

  /// Multi-dimensional access, bounds-checked, up to 4 indices.
  float& operator()(std::int64_t i0);
  float& operator()(std::int64_t i0, std::int64_t i1);
  float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2);
  float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                    std::int64_t i3);
  float operator()(std::int64_t i0) const;
  float operator()(std::int64_t i0, std::int64_t i1) const;
  float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) const;
  float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                   std::int64_t i3) const;

  /// Return a tensor with the same data and a new shape (numel must match).
  Tensor reshaped(Shape new_shape) const;

  /// Resize this tensor's buffer to the given shape, reusing existing
  /// capacity when possible (no heap traffic once capacity suffices —
  /// layers use this for their steady-state output/cache buffers).
  /// Contents are unspecified after a shape change and untouched when the
  /// shape already matches.
  void ensure_shape(std::initializer_list<std::int64_t> dims);
  void ensure_shape(const Shape& shape);

  /// Check the shape↔data invariant (`data_.size() == shape_numel(shape_)`)
  /// and throw fhdnn::Error if it is broken. `vec()` hands out the raw
  /// vector for serialization layers, which could resize it behind the
  /// shape's back — deserialization paths call this after touching it.
  void assert_invariant() const;

  /// In-place fills.
  void fill(float value);
  void zero() { fill(0.0F); }

  /// Sum of all elements / mean / min / max / L2 norm.
  double sum() const;
  double mean() const;
  float min() const;
  float max() const;
  double l2_norm() const;

  /// a += alpha * b elementwise (shapes must match).
  void axpy(float alpha, const Tensor& b);
  /// a *= alpha.
  void scale(float alpha);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::int64_t flat_index(std::span<const std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace fhdnn
