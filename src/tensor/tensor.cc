#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace armnet {

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  for (int64_t d : shape_.dims()) {
    ARMNET_CHECK_GE(d, 0) << "cannot allocate shape " << shape_.ToString();
  }
  storage_ = std::make_shared<std::vector<float>>(
      static_cast<size_t>(shape_.numel()), 0.0f);
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape({})};
  (*t.storage_)[0] = value;
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  ARMNET_CHECK_EQ(shape.numel(), static_cast<int64_t>(values.size()))
      << "FromVector: shape " << shape.ToString() << " does not match vector";
  Tensor t;
  t.storage_ = std::make_shared<std::vector<float>>(std::move(values));
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.UniformF(lo, hi);
  return t;
}

Tensor Tensor::Normal(Shape shape, float mean, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.Gaussian(mean, stddev));
  return t;
}

Tensor Tensor::Reshape(Shape shape) const {
  ARMNET_CHECK(defined());
  // Resolve a single -1 dimension.
  std::vector<int64_t> dims = shape.dims();
  int64_t known = 1;
  int infer = -1;
  for (int i = 0; i < static_cast<int>(dims.size()); ++i) {
    if (dims[static_cast<size_t>(i)] == -1) {
      ARMNET_CHECK_EQ(infer, -1) << "at most one -1 dimension";
      infer = i;
    } else {
      known *= dims[static_cast<size_t>(i)];
    }
  }
  if (infer >= 0) {
    ARMNET_CHECK(known > 0 && numel() % known == 0)
        << "cannot infer dimension for reshape of " << shape_.ToString();
    dims[static_cast<size_t>(infer)] = numel() / known;
  }
  Shape resolved{std::move(dims)};
  ARMNET_CHECK_EQ(resolved.numel(), numel())
      << "reshape " << shape_.ToString() << " -> " << resolved.ToString();
  Tensor view;
  view.storage_ = storage_;
  view.shape_ = std::move(resolved);
  return view;
}

Tensor Tensor::Clone() const {
  if (!defined()) return Tensor();
  Tensor copy;
  copy.storage_ =
      std::make_shared<std::vector<float>>(data(), data() + numel());
  copy.shape_ = shape_;
  return copy;
}

void Tensor::Fill(float value) {
  ARMNET_CHECK(defined());
  float* p = data();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) p[i] = value;
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < numel(); ++i) {
    if (std::abs((*this)[i] - other[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::ToString(int64_t max_elements) const {
  if (!defined()) return "Tensor(undefined)";
  std::string s = "Tensor" + shape_.ToString() + " {";
  const int64_t n = std::min(numel(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) s += ", ";
    s += StrFormat("%g", (*this)[i]);
  }
  if (n < numel()) s += ", ...";
  return s + "}";
}

int64_t Tensor::FlatIndex(std::initializer_list<int64_t> indices) const {
  ARMNET_DCHECK(defined());
  ARMNET_CHECK_EQ(static_cast<int>(indices.size()), rank());
  int64_t flat = 0;
  int i = 0;
  for (int64_t idx : indices) {
    const int64_t d = shape_.dim(i);
    if (idx < 0) idx += d;
    ARMNET_DCHECK(idx >= 0 && idx < d);
    flat = flat * d + idx;
    ++i;
  }
  ARMNET_DCHECK(flat >= 0 && flat < numel());
  return flat;
}

}  // namespace armnet
