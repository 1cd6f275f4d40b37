#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.h"

namespace armnet::tmath {

namespace {

// Strides for `shape` when broadcast to `out`, with stride 0 on broadcast
// dims. Shapes are right-aligned.
std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out) {
  const int out_rank = out.rank();
  const int rank = shape.rank();
  std::vector<int64_t> strides(static_cast<size_t>(out_rank), 0);
  const std::vector<int64_t> own = shape.Strides();
  for (int i = 0; i < rank; ++i) {
    const int oi = out_rank - 1 - i;
    const int si = rank - 1 - i;
    const int64_t dim = shape.dim(si);
    if (dim == out.dim(oi)) {
      strides[static_cast<size_t>(oi)] = own[static_cast<size_t>(si)];
    } else {
      ARMNET_CHECK_EQ(dim, 1) << "broadcast mismatch: " << shape.ToString()
                              << " vs " << out.ToString();
      strides[static_cast<size_t>(oi)] = 0;
    }
  }
  return strides;
}

// Largest flat offset an odometer walk over `shape` can reach with the given
// per-dimension strides. Used to DCHECK that broadcast/permuted stride math
// stays inside the source buffer before entering a raw-pointer loop.
[[maybe_unused]] int64_t MaxOffset(const Shape& shape,
                                   const std::vector<int64_t>& strides) {
  int64_t off = 0;
  for (int d = 0; d < shape.rank(); ++d) {
    if (shape.dim(d) > 0) off += (shape.dim(d) - 1) * strides[static_cast<size_t>(d)];
  }
  return off;
}

// Generic broadcasting binary loop. Walks the output in row-major order with
// an odometer, maintaining input offsets incrementally.
template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  Tensor out(out_shape);
  const int64_t n = out.numel();
  if (n == 0) return out;

  // Fast path: identical shapes, plain contiguous walk.
  if (a.shape() == b.shape()) {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
    return out;
  }

  const int rank = out_shape.rank();
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), out_shape);
  const std::vector<int64_t> sb = BroadcastStrides(b.shape(), out_shape);
  ARMNET_DCHECK_LT(MaxOffset(out_shape, sa), a.numel());
  ARMNET_DCHECK_LT(MaxOffset(out_shape, sb), b.numel());
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t offset_a = 0;
  int64_t offset_b = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[i] = fn(pa[offset_a], pb[offset_b]);
    // Odometer increment from the last dimension.
    for (int d = rank - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index[ud]++;
      offset_a += sa[ud];
      offset_b += sb[ud];
      if (index[ud] < out_shape.dim(d)) break;
      // Carry: rewind this dimension.
      offset_a -= sa[ud] * out_shape.dim(d);
      offset_b -= sb[ud] * out_shape.dim(d);
      index[ud] = 0;
    }
  }
  return out;
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    kernels::VecAdd(a.data(), b.data(), out.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    kernels::VecSub(a.data(), b.data(), out.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    kernels::VecMul(a.data(), b.data(), out.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    kernels::VecDiv(a.data(), b.data(), out.data(), a.numel());
    return out;
  }
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::max(x, y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  kernels::VecScale(a.data(), s, out.data(), a.numel());
  return out;
}

Tensor PowScalar(const Tensor& a, float p) {
  return Unary(a, [p](float x) { return std::pow(x, p); });
}

Tensor Neg(const Tensor& a) {
  return Unary(a, [](float x) { return -x; });
}

Tensor Exp(const Tensor& a) {
  Tensor out(a.shape());
  kernels::VecExp(a.data(), out.data(), a.numel());
  return out;
}

Tensor Log(const Tensor& a) {
  return Unary(a, [](float x) { return std::log(x); });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(a, [](float x) { return std::sqrt(x); });
}

Tensor Abs(const Tensor& a) {
  return Unary(a, [](float x) { return std::abs(x); });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(a, [](float x) {
    // Stable in both tails.
    if (x >= 0) {
      const float z = std::exp(-x);
      return 1.0f / (1.0f + z);
    }
    const float z = std::exp(x);
    return z / (1.0f + z);
  });
}

Tensor Tanh(const Tensor& a) {
  return Unary(a, [](float x) { return std::tanh(x); });
}

// NaN passes through, so a non-finite activation reaches the logits, where
// the serving breaker looks for it.
Tensor Relu(const Tensor& a) {
  return Unary(a, [](float x) { return x <= 0 ? 0.0f : x; });
}

Tensor ClampMin(const Tensor& a, float lo) {
  return Unary(a, [lo](float x) { return x < lo ? lo : x; });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  return Unary(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ARMNET_CHECK_GE(a.rank(), 2) << "MatMul lhs must be at least rank 2";
  ARMNET_CHECK_GE(b.rank(), 2) << "MatMul rhs must be at least rank 2";
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t k2 = b.dim(-2);
  const int64_t n = b.dim(-1);
  ARMNET_CHECK_EQ(k, k2) << "MatMul inner dims: " << a.shape().ToString()
                         << " x " << b.shape().ToString();

  // Batch shapes are everything except the last two dims.
  auto batch_of = [](const Shape& s) {
    std::vector<int64_t> dims(s.dims().begin(), s.dims().end() - 2);
    return Shape(std::move(dims));
  };
  const Shape batch_a = batch_of(a.shape());
  const Shape batch_b = batch_of(b.shape());
  const Shape batch = Shape::Broadcast(batch_a, batch_b);
  std::vector<int64_t> out_dims = batch.dims();
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out{Shape(out_dims)};

  const int64_t batches = batch.numel();
  if (batches == 0 || m == 0 || n == 0) return out;

  // Per-batch strides (in matrices) with 0 on broadcast dims.
  const std::vector<int64_t> sa = BroadcastStrides(batch_a, batch);
  const std::vector<int64_t> sb = BroadcastStrides(batch_b, batch);
  ARMNET_DCHECK_LE((MaxOffset(batch, sa) + 1) * m * k, a.numel());
  ARMNET_DCHECK_LE((MaxOffset(batch, sb) + 1) * k * n, b.numel());
  const int brank = batch.rank();
  std::vector<int64_t> index(static_cast<size_t>(brank), 0);
  int64_t off_a = 0;
  int64_t off_b = 0;
  const int64_t mat_a = m * k;
  const int64_t mat_b = k * n;
  const int64_t mat_o = m * n;
  for (int64_t bi = 0; bi < batches; ++bi) {
    kernels::Gemm(m, n, k, a.data() + off_a * mat_a, b.data() + off_b * mat_b,
                  0.0f, out.data() + bi * mat_o);
    for (int d = brank - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index[ud]++;
      off_a += sa[ud];
      off_b += sb[ud];
      if (index[ud] < batch.dim(d)) break;
      off_a -= sa[ud] * batch.dim(d);
      off_b -= sb[ud] * batch.dim(d);
      index[ud] = 0;
    }
  }
  return out;
}

Tensor Transpose(const Tensor& a, int dim0, int dim1) {
  const int rank = a.rank();
  if (dim0 < 0) dim0 += rank;
  if (dim1 < 0) dim1 += rank;
  ARMNET_CHECK(dim0 >= 0 && dim0 < rank && dim1 >= 0 && dim1 < rank);
  if (dim0 == dim1) return a.Clone();
  std::vector<int64_t> out_dims = a.shape().dims();
  std::swap(out_dims[static_cast<size_t>(dim0)],
            out_dims[static_cast<size_t>(dim1)]);
  Tensor out{Shape(out_dims)};

  // Input strides permuted into output order.
  std::vector<int64_t> in_strides = a.shape().Strides();
  std::swap(in_strides[static_cast<size_t>(dim0)],
            in_strides[static_cast<size_t>(dim1)]);

  const int64_t n = out.numel();
  ARMNET_DCHECK(n == 0 || MaxOffset(out.shape(), in_strides) < a.numel());
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  float* po = out.data();
  int64_t off = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[i] = pa[off];
    for (int d = rank - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index[ud]++;
      off += in_strides[ud];
      if (index[ud] < out.dim(d)) break;
      off -= in_strides[ud] * out.dim(d);
      index[ud] = 0;
    }
  }
  return out;
}

Tensor SumAll(const Tensor& a) {
  return Tensor::Scalar(kernels::VecSum(a.data(), a.numel()));
}

Tensor Sum(const Tensor& a, int axis, bool keepdim) {
  const int rank = a.rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);
  std::vector<int64_t> out_dims;
  for (int d = 0; d < rank; ++d) {
    if (d == axis) {
      if (keepdim) out_dims.push_back(1);
    } else {
      out_dims.push_back(a.dim(d));
    }
  }
  Tensor out{Shape(out_dims)};

  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= a.dim(d);
  const int64_t reduce = a.dim(axis);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= a.dim(d);
  ARMNET_DCHECK_EQ(outer * reduce * inner, a.numel());
  const float* pa = a.data();
  float* po = out.data();
  // Accumulates into the zero-filled output.
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t r = 0; r < reduce; ++r) {
      const float* src = pa + (o * reduce + r) * inner;
      float* dst = po + o * inner;
      kernels::VecAxpy(1.0f, src, dst, inner);
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int axis, bool keepdim) {
  const int rank = a.rank();
  const int resolved = axis < 0 ? axis + rank : axis;
  const int64_t n = a.dim(resolved);
  ARMNET_CHECK_GT(n, 0);
  return MulScalar(Sum(a, axis, keepdim), 1.0f / static_cast<float>(n));
}

Tensor SumTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a.Clone();
  ARMNET_CHECK(Shape::BroadcastableTo(target, a.shape()))
      << "SumTo: " << a.shape().ToString() << " -> " << target.ToString();
  Tensor out(target);
  const int rank = a.rank();
  const std::vector<int64_t> so = BroadcastStrides(target, a.shape());
  ARMNET_DCHECK(a.numel() == 0 || MaxOffset(a.shape(), so) < out.numel());
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  float* po = out.data();
  int64_t off = 0;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[off] += pa[i];
    for (int d = rank - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index[ud]++;
      off += so[ud];
      if (index[ud] < a.dim(d)) break;
      off -= so[ud] * a.dim(d);
      index[ud] = 0;
    }
  }
  return out;
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a.Clone();
  ARMNET_CHECK(Shape::BroadcastableTo(a.shape(), target))
      << "BroadcastTo: " << a.shape().ToString() << " -> "
      << target.ToString();
  Tensor out(target);
  const int rank = target.rank();
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), target);
  ARMNET_DCHECK(out.numel() == 0 || MaxOffset(target, sa) < a.numel());
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  float* po = out.data();
  int64_t off = 0;
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = pa[off];
    for (int d = rank - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index[ud]++;
      off += sa[ud];
      if (index[ud] < target.dim(d)) break;
      off -= sa[ud] * target.dim(d);
      index[ud] = 0;
    }
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  ARMNET_CHECK(!parts.empty());
  const int rank = parts.front().rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);

  int64_t total_axis = 0;
  for (const Tensor& p : parts) {
    ARMNET_CHECK_EQ(p.rank(), rank);
    for (int d = 0; d < rank; ++d) {
      if (d != axis) {
        ARMNET_CHECK_EQ(p.dim(d), parts.front().dim(d))
            << "Concat: mismatched non-axis dimension " << d;
      }
    }
    total_axis += p.dim(axis);
  }
  std::vector<int64_t> out_dims = parts.front().shape().dims();
  out_dims[static_cast<size_t>(axis)] = total_axis;
  Tensor out{Shape(out_dims)};

  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= out.dim(d);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= out.dim(d);

  int64_t axis_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t p_axis = p.dim(axis);
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = p.data() + o * p_axis * inner;
      float* dst = out.data() + (o * total_axis + axis_offset) * inner;
      std::copy(src, src + p_axis * inner, dst);
    }
    axis_offset += p_axis;
  }
  return out;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length) {
  const int rank = a.rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);
  ARMNET_CHECK(start >= 0 && length >= 0 && start + length <= a.dim(axis))
      << "Slice out of range on axis " << axis;
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[static_cast<size_t>(axis)] = length;
  Tensor out{Shape(out_dims)};

  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= a.dim(d);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= a.dim(d);
  const int64_t in_axis = a.dim(axis);
  ARMNET_DCHECK_EQ(outer * in_axis * inner, a.numel());

  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.data() + (o * in_axis + start) * inner;
    float* dst = out.data() + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }
  return out;
}

Tensor IndexSelect(const Tensor& a, int axis,
                   const std::vector<int64_t>& indices) {
  const int rank = a.rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);
  const int64_t in_axis = a.dim(axis);
  const int64_t count = static_cast<int64_t>(indices.size());
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[static_cast<size_t>(axis)] = count;
  Tensor out{Shape(out_dims)};

  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= a.dim(d);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= a.dim(d);

  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t k = 0; k < count; ++k) {
      const int64_t idx = indices[static_cast<size_t>(k)];
      ARMNET_CHECK(idx >= 0 && idx < in_axis)
          << "IndexSelect index " << idx << " out of range";
      const float* src = a.data() + (o * in_axis + idx) * inner;
      float* dst = out.data() + (o * count + k) * inner;
      std::copy(src, src + inner, dst);
    }
  }
  return out;
}

Tensor IndexSelectBackward(const Tensor& g, const Shape& full, int axis,
                           const std::vector<int64_t>& indices) {
  const int rank = full.rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);
  ARMNET_CHECK_EQ(g.dim(axis), static_cast<int64_t>(indices.size()));
  Tensor out(full);
  const int64_t full_axis = full.dim(axis);

  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= full.dim(d);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= full.dim(d);

  for (int64_t o = 0; o < outer; ++o) {
    for (size_t k = 0; k < indices.size(); ++k) {
      const int64_t idx = indices[k];
      ARMNET_CHECK(idx >= 0 && idx < full_axis);
      const float* src =
          g.data() +
          (o * static_cast<int64_t>(indices.size()) + static_cast<int64_t>(k)) *
              inner;
      float* dst = out.data() + (o * full_axis + idx) * inner;
      kernels::VecAxpy(1.0f, src, dst, inner);
    }
  }
  return out;
}

Tensor SliceBackward(const Tensor& a, const Shape& full, int axis,
                     int64_t start) {
  const int rank = full.rank();
  if (axis < 0) axis += rank;
  ARMNET_CHECK(axis >= 0 && axis < rank);
  ARMNET_CHECK_EQ(a.rank(), rank);
  const int64_t length = a.dim(axis);
  ARMNET_CHECK(start >= 0 && start + length <= full.dim(axis));

  Tensor out(full);
  int64_t outer = 1;
  for (int d = 0; d < axis; ++d) outer *= full.dim(d);
  int64_t inner = 1;
  for (int d = axis + 1; d < rank; ++d) inner *= full.dim(d);
  const int64_t full_axis = full.dim(axis);

  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.data() + o * length * inner;
    float* dst = out.data() + (o * full_axis + start) * inner;
    std::copy(src, src + length * inner, dst);
  }
  return out;
}

void CheckRowIds(const std::vector<int64_t>& ids, int64_t rows,
                 const char* op_name) {
  // Branchless pre-scan: OR the sign bit and an unsigned compare across all
  // ids, then (only on failure) rescan to name the first offender. This
  // hoists the per-id CHECK out of the copy loop without weakening the
  // id-naming contract — the failure message still cites the exact id.
  const uint64_t bound = static_cast<uint64_t>(rows);
  uint64_t bad = 0;
  for (const int64_t id : ids) {
    bad |= static_cast<uint64_t>(id) >= bound ? 1u : 0u;
  }
  if (bad == 0) return;
  for (const int64_t id : ids) {
    ARMNET_CHECK(id >= 0 && id < rows)
        << op_name << " id " << id << " out of range [0, " << rows << ")";
  }
}

void GatherRowsOut(const Tensor& table, const std::vector<int64_t>& ids,
                   Tensor& out) {
  ARMNET_CHECK_EQ(table.rank(), 2) << "GatherRows table must be rank 2";
  const int64_t rows = table.dim(0);
  const int64_t width = table.dim(1);
  ARMNET_DCHECK(out.dim(0) == static_cast<int64_t>(ids.size()) &&
                out.dim(1) == width);
  CheckRowIds(ids, rows, "GatherRows");
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = table.data() + ids[i] * width;
    std::copy(src, src + width, out.data() + static_cast<int64_t>(i) * width);
  }
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids) {
  ARMNET_CHECK_EQ(table.rank(), 2) << "GatherRows table must be rank 2";
  Tensor out{Shape({static_cast<int64_t>(ids.size()), table.dim(1)})};
  GatherRowsOut(table, ids, out);
  return out;
}

void ScatterAddRows(Tensor& dest, const std::vector<int64_t>& ids,
                    const Tensor& src) {
  ARMNET_CHECK_EQ(dest.rank(), 2);
  ARMNET_CHECK_EQ(src.rank(), 2);
  ARMNET_CHECK_EQ(src.dim(0), static_cast<int64_t>(ids.size()));
  ARMNET_CHECK_EQ(src.dim(1), dest.dim(1));
  const int64_t rows = dest.dim(0);
  const int64_t width = dest.dim(1);
  CheckRowIds(ids, rows, "ScatterAddRows");
  for (size_t i = 0; i < ids.size(); ++i) {
    kernels::VecAxpy(1.0f, src.data() + static_cast<int64_t>(i) * width,
                     dest.data() + ids[i] * width, width);
  }
}

Tensor SoftmaxLastDim(const Tensor& a) {
  ARMNET_CHECK_GE(a.rank(), 1);
  Tensor out(a.shape());
  const int64_t d = a.dim(-1);
  if (d == 0) return out;  // avoids dividing by a zero-sized last dim
  const int64_t rows = a.numel() / d;
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = a.data() + r * d;
    float* dst = out.data() + r * d;
    // A row holding a NaN or ±Inf becomes an all-NaN row (std::max would
    // skip a NaN, and exp(−Inf − max) would hide an −Inf as a zero).
    bool finite = true;
    float row_max = src[0];
    for (int64_t j = 0; j < d; ++j) {
      finite = finite && std::isfinite(src[j]);
      row_max = std::max(row_max, src[j]);
    }
    if (!finite) {
      std::fill(dst, dst + d, std::numeric_limits<float>::quiet_NaN());
      continue;
    }
    float total = 0;
    for (int64_t j = 0; j < d; ++j) {
      dst[j] = std::exp(src[j] - row_max);
      total += dst[j];
    }
    const float inv = 1.0f / total;
    for (int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  return out;
}

}  // namespace armnet::tmath
