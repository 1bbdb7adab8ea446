#pragma once
// Minimal dense 4-D tensor (NHWC) for the training substrate.

#include <cstddef>
#include <vector>

namespace lens::nn {

/// Batch tensor, NHWC layout, float32.
class Tensor {
 public:
  Tensor() = default;

  /// Allocate an n x h x w x c tensor filled with `fill`.
  Tensor(int n, int h, int w, int c, float fill = 0.0f);

  /// Flat vector view (n x 1 x 1 x c).
  static Tensor flat(int n, int c, float fill = 0.0f) { return Tensor(n, 1, 1, c, fill); }

  int n() const { return n_; }
  int h() const { return h_; }
  int w() const { return w_; }
  int c() const { return c_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Feature count per batch element.
  int features() const { return h_ * w_ * c_; }

  float& at(int n, int h, int w, int c);
  float at(int n, int h, int w, int c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  /// Same storage reinterpreted as n x 1 x 1 x features (no copy of note:
  /// returns a reshaped copy of the header, data is copied — tensors are
  /// value types here and small).
  Tensor reshaped(int n, int h, int w, int c) const;

 private:
  int n_ = 0, h_ = 0, w_ = 0, c_ = 0;
  std::vector<float> data_;
};

}  // namespace lens::nn
