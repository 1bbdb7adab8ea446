#include "nn/tensor.hpp"

#include <stdexcept>

namespace lens::nn {

Tensor::Tensor(int n, int h, int w, int c, float fill)
    : n_(n), h_(h), w_(w), c_(c) {
  if (n <= 0 || h <= 0 || w <= 0 || c <= 0) {
    throw std::invalid_argument("Tensor: non-positive dimension");
  }
  data_.assign(static_cast<std::size_t>(n) * h * w * c, fill);
}

float& Tensor::at(int n, int h, int w, int c) {
  return data_[((static_cast<std::size_t>(n) * h_ + h) * w_ + w) * c_ + c];
}

float Tensor::at(int n, int h, int w, int c) const {
  return data_[((static_cast<std::size_t>(n) * h_ + h) * w_ + w) * c_ + c];
}

Tensor Tensor::reshaped(int n, int h, int w, int c) const {
  if (static_cast<std::size_t>(n) * h * w * c != data_.size()) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  }
  Tensor out;
  out.n_ = n;
  out.h_ = h;
  out.w_ = w;
  out.c_ = c;
  out.data_ = data_;
  return out;
}

}  // namespace lens::nn
