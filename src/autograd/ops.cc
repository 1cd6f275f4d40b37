#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "autograd/grad_mode.h"
#include "tensor/quantized.h"
#include "tensor/tensor_ops.h"

namespace armnet::ag {

namespace tm = ::armnet::tmath;

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = tm::Add(a.value(), b.value());
  return MakeFromOp(std::move(out), {a, b}, [a, b](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(tm::SumTo(g, a.shape()));
    if (b.requires_grad()) b.AccumulateGrad(tm::SumTo(g, b.shape()));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = tm::Sub(a.value(), b.value());
  return MakeFromOp(std::move(out), {a, b}, [a, b](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(tm::SumTo(g, a.shape()));
    if (b.requires_grad()) b.AccumulateGrad(tm::SumTo(tm::Neg(g), b.shape()));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = tm::Mul(a.value(), b.value());
  return MakeFromOp(std::move(out), {a, b}, [a, b](const Tensor& g) mutable {
    if (a.requires_grad())
      a.AccumulateGrad(tm::SumTo(tm::Mul(g, b.value()), a.shape()));
    if (b.requires_grad())
      b.AccumulateGrad(tm::SumTo(tm::Mul(g, a.value()), b.shape()));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor out = tm::Div(a.value(), b.value());
  return MakeFromOp(std::move(out), {a, b}, [a, b](const Tensor& g) mutable {
    if (a.requires_grad())
      a.AccumulateGrad(tm::SumTo(tm::Div(g, b.value()), a.shape()));
    if (b.requires_grad()) {
      // d/db (a/b) = -a / b^2
      Tensor db = tm::Neg(tm::Div(tm::Mul(g, a.value()),
                                  tm::Mul(b.value(), b.value())));
      b.AccumulateGrad(tm::SumTo(db, b.shape()));
    }
  });
}

Variable AddScalar(const Variable& a, float s) {
  Tensor out = tm::AddScalar(a.value(), s);
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(g);
  });
}

Variable MulScalar(const Variable& a, float s) {
  Tensor out = tm::MulScalar(a.value(), s);
  return MakeFromOp(std::move(out), {a}, [a, s](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(tm::MulScalar(g, s));
  });
}

Variable PowScalar(const Variable& a, float p) {
  Tensor out = tm::PowScalar(a.value(), p);
  return MakeFromOp(std::move(out), {a}, [a, p](const Tensor& g) mutable {
    if (a.requires_grad()) {
      Tensor da =
          tm::Mul(g, tm::MulScalar(tm::PowScalar(a.value(), p - 1.0f), p));
      a.AccumulateGrad(da);
    }
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  Tensor out = tm::Exp(a.value());
  Tensor out_copy = out;  // shares storage; cheap capture for backward
  return MakeFromOp(std::move(out), {a},
                    [a, out_copy](const Tensor& g) mutable {
                      if (a.requires_grad())
                        a.AccumulateGrad(tm::Mul(g, out_copy));
                    });
}

Variable Log(const Variable& a) {
  Tensor out = tm::Log(a.value());
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(tm::Div(g, a.value()));
  });
}

Variable Sqrt(const Variable& a) {
  Tensor out = tm::Sqrt(a.value());
  Tensor out_copy = out;
  return MakeFromOp(std::move(out), {a},
                    [a, out_copy](const Tensor& g) mutable {
                      if (a.requires_grad()) {
                        // d sqrt(x) = 0.5 / sqrt(x)
                        Tensor da = tm::Div(tm::MulScalar(g, 0.5f), out_copy);
                        a.AccumulateGrad(da);
                      }
                    });
}

Variable Square(const Variable& a) {
  Tensor out = tm::Mul(a.value(), a.value());
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (a.requires_grad())
      a.AccumulateGrad(tm::Mul(g, tm::MulScalar(a.value(), 2.0f)));
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor out = tm::Sigmoid(a.value());
  Tensor out_copy = out;
  return MakeFromOp(
      std::move(out), {a}, [a, out_copy](const Tensor& g) mutable {
        if (a.requires_grad()) {
          // s' = s (1 - s)
          Tensor da = tm::Mul(
              g, tm::Mul(out_copy, tm::AddScalar(tm::Neg(out_copy), 1.0f)));
          a.AccumulateGrad(da);
        }
      });
}

Variable Tanh(const Variable& a) {
  Tensor out = tm::Tanh(a.value());
  Tensor out_copy = out;
  return MakeFromOp(std::move(out), {a},
                    [a, out_copy](const Tensor& g) mutable {
                      if (a.requires_grad()) {
                        // tanh' = 1 - tanh^2
                        Tensor da = tm::Mul(
                            g, tm::AddScalar(
                                   tm::Neg(tm::Mul(out_copy, out_copy)), 1.0f));
                        a.AccumulateGrad(da);
                      }
                    });
}

Variable Relu(const Variable& a) {
  Tensor out = tm::Relu(a.value());
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    ARMNET_DCHECK(g.shape() == a.shape());
    Tensor da(g.shape());
    const float* pg = g.data();
    const float* pa = a.value().data();
    float* pd = da.data();
    const int64_t n = g.numel();
    for (int64_t i = 0; i < n; ++i) pd[i] = pa[i] > 0 ? pg[i] : 0.0f;
    a.AccumulateGrad(da);
  });
}

Variable LeakyRelu(const Variable& a, float slope) {
  Tensor out(a.shape());
  {
    const float* pa = a.value().data();
    float* po = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = pa[i] > 0 ? pa[i] : slope * pa[i];
  }
  return MakeFromOp(std::move(out), {a}, [a, slope](const Tensor& g) {
    if (!a.requires_grad()) return;
    ARMNET_DCHECK(g.shape() == a.shape());
    Tensor da(g.shape());
    const float* pg = g.data();
    const float* pa = a.value().data();
    float* pd = da.data();
    const int64_t n = g.numel();
    for (int64_t i = 0; i < n; ++i) pd[i] = pa[i] > 0 ? pg[i] : slope * pg[i];
    a.AccumulateGrad(da);
  });
}

Variable Abs(const Variable& a) {
  Tensor out = tm::Abs(a.value());
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) {
    if (!a.requires_grad()) return;
    ARMNET_DCHECK(g.shape() == a.shape());
    Tensor da(g.shape());
    const float* pg = g.data();
    const float* pa = a.value().data();
    float* pd = da.data();
    const int64_t n = g.numel();
    for (int64_t i = 0; i < n; ++i) {
      pd[i] = pa[i] > 0 ? pg[i] : (pa[i] < 0 ? -pg[i] : 0.0f);
    }
    a.AccumulateGrad(da);
  });
}

Variable ClampMin(const Variable& a, float lo) {
  Tensor out = tm::ClampMin(a.value(), lo);
  return MakeFromOp(std::move(out), {a}, [a, lo](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    ARMNET_DCHECK(g.shape() == a.shape());
    Tensor da(g.shape());
    const float* pg = g.data();
    const float* pa = a.value().data();
    float* pd = da.data();
    const int64_t n = g.numel();
    for (int64_t i = 0; i < n; ++i) pd[i] = pa[i] > lo ? pg[i] : 0.0f;
    a.AccumulateGrad(da);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = tm::MatMul(a.value(), b.value());
  return MakeFromOp(std::move(out), {a, b}, [a, b](const Tensor& g) mutable {
    if (a.requires_grad()) {
      // dA = g B^T, reduced over broadcast batch dims.
      Tensor da = tm::MatMul(g, tm::Transpose(b.value(), -2, -1));
      a.AccumulateGrad(tm::SumTo(da, a.shape()));
    }
    if (b.requires_grad()) {
      // dB = A^T g, reduced over broadcast batch dims.
      Tensor db = tm::MatMul(tm::Transpose(a.value(), -2, -1), g);
      b.AccumulateGrad(tm::SumTo(db, b.shape()));
    }
  });
}

Variable Transpose(const Variable& a, int dim0, int dim1) {
  Tensor out = tm::Transpose(a.value(), dim0, dim1);
  return MakeFromOp(std::move(out), {a},
                    [a, dim0, dim1](const Tensor& g) mutable {
                      if (a.requires_grad())
                        a.AccumulateGrad(tm::Transpose(g, dim0, dim1));
                    });
}

Variable Reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (a.requires_grad()) a.AccumulateGrad(g.Reshape(a.shape()));
  });
}

Variable SumAll(const Variable& a) {
  Tensor out = tm::SumAll(a.value());
  return MakeFromOp(std::move(out), {a}, [a](const Tensor& g) mutable {
    if (a.requires_grad())
      a.AccumulateGrad(Tensor::Full(a.shape(), g.item()));
  });
}

Variable MeanAll(const Variable& a) {
  const int64_t n = a.numel();
  ARMNET_CHECK_GT(n, 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(n));
}

Variable Sum(const Variable& a, int axis, bool keepdim) {
  Tensor out = tm::Sum(a.value(), axis, keepdim);
  const int rank = a.value().rank();
  const int resolved = axis < 0 ? axis + rank : axis;
  return MakeFromOp(
      std::move(out), {a}, [a, resolved, keepdim](const Tensor& g) mutable {
        if (!a.requires_grad()) return;
        Tensor gk = g;
        if (!keepdim) {
          // Reinsert the reduced axis as size 1 so broadcasting lines up.
          std::vector<int64_t> dims = a.shape().dims();
          dims[static_cast<size_t>(resolved)] = 1;
          gk = g.Reshape(Shape(std::move(dims)));
        }
        a.AccumulateGrad(tm::BroadcastTo(gk, a.shape()));
      });
}

Variable Mean(const Variable& a, int axis, bool keepdim) {
  const int rank = a.value().rank();
  const int resolved = axis < 0 ? axis + rank : axis;
  const int64_t n = a.value().dim(resolved);
  ARMNET_CHECK_GT(n, 0);
  return MulScalar(Sum(a, axis, keepdim), 1.0f / static_cast<float>(n));
}

Variable Concat(const std::vector<Variable>& parts, int axis) {
  ARMNET_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor out = tm::Concat(values, axis);
  const int rank = parts.front().value().rank();
  const int resolved = axis < 0 ? axis + rank : axis;
  return MakeFromOp(std::move(out), parts,
                    [parts, resolved](const Tensor& g) mutable {
                      int64_t offset = 0;
                      for (const Variable& p : parts) {
                        const int64_t len = p.value().dim(resolved);
                        if (p.requires_grad()) {
                          p.AccumulateGrad(
                              tm::Slice(g, resolved, offset, len));
                        }
                        offset += len;
                      }
                    });
}

Variable Slice(const Variable& a, int axis, int64_t start, int64_t length) {
  Tensor out = tm::Slice(a.value(), axis, start, length);
  return MakeFromOp(std::move(out), {a},
                    [a, axis, start](const Tensor& g) mutable {
                      if (a.requires_grad()) {
                        a.AccumulateGrad(
                            tm::SliceBackward(g, a.shape(), axis, start));
                      }
                    });
}

Variable IndexSelect(const Variable& a, int axis,
                     const std::vector<int64_t>& indices) {
  Tensor out = tm::IndexSelect(a.value(), axis, indices);
  return MakeFromOp(std::move(out), {a},
                    [a, axis, indices](const Tensor& g) {
                      if (!a.requires_grad()) return;
                      a.AccumulateGrad(
                          tm::IndexSelectBackward(g, a.shape(), axis, indices));
                    });
}

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int64_t>& ids) {
  Tensor out = tm::GatherRows(table.value(), ids);
  return MakeFromOp(std::move(out), {table},
                    [table, ids](const Tensor& g) mutable {
                      if (!table.requires_grad()) return;
                      Tensor dt(table.shape());
                      tm::ScatterAddRows(dt, ids, g);
                      table.AccumulateGrad(dt);
                    });
}

Variable QuantizedEmbeddingLookup(
    const std::shared_ptr<const QuantizedTable>& table,
    const std::vector<int64_t>& ids) {
  ARMNET_CHECK(table != nullptr) << "QuantizedEmbeddingLookup: null table";
  ARMNET_CHECK(!GradMode::IsEnabled())
      << "QuantizedEmbeddingLookup is inference-only; train on the float32 "
         "table and quantize at export";
  Tensor out = table->GatherRows(ids);
  // No inputs and no backward: grad mode is off, so MakeFromOp takes the
  // tape-free path.
  return MakeFromOp(std::move(out), {}, nullptr);
}

Variable Softmax(const Variable& a) {
  Tensor out = tm::SoftmaxLastDim(a.value());
  Tensor p = out;
  return MakeFromOp(std::move(out), {a}, [a, p](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    // dz = p * (g - sum(p * g, last))
    Tensor pg = tm::Mul(p, g);
    Tensor row_sums = tm::Sum(pg, -1, /*keepdim=*/true);
    Tensor da = tm::Mul(p, tm::Sub(g, tm::BroadcastTo(row_sums, g.shape())));
    a.AccumulateGrad(da);
  });
}

Variable BceWithLogits(const Variable& logits, const Tensor& targets) {
  const int64_t n = logits.numel();
  ARMNET_CHECK_EQ(n, targets.numel())
      << "BceWithLogits: logits vs targets size";
  ARMNET_CHECK_GT(n, 0);

  // loss_i = max(x,0) - x*y + log(1 + exp(-|x|)); mean over i.
  const float* px = logits.value().data();
  const float* py = targets.data();
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = px[i];
    const double y = py[i];
    total += std::max(x, 0.0) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  Tensor out = Tensor::Scalar(static_cast<float>(total / n));
  Tensor targets_copy = targets;
  return MakeFromOp(
      std::move(out), {logits},
      [logits, targets_copy, n](const Tensor& g) mutable {
        if (!logits.requires_grad()) return;
        ARMNET_DCHECK_EQ(g.numel(), 1);
        // dx_i = (sigmoid(x_i) - y_i) / n * g
        const float scale = g.item() / static_cast<float>(n);
        Tensor dx(logits.shape());
        const float* px = logits.value().data();
        const float* py = targets_copy.data();
        float* pd = dx.data();
        for (int64_t i = 0; i < n; ++i) {
          const float x = px[i];
          const float s = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                                 : std::exp(x) / (1.0f + std::exp(x));
          pd[i] = (s - py[i]) * scale;
        }
        logits.AccumulateGrad(dx);
      });
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  ARMNET_CHECK(pred.shape() == target.shape());
  Variable diff = Sub(pred, Constant(target));
  return MeanAll(Square(diff));
}

Variable Dropout(const Variable& a, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return a;
  ARMNET_CHECK_LT(p, 1.0f) << "Dropout keep probability would be zero";
  const float scale = 1.0f / (1.0f - p);
  Tensor mask(a.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.Bernoulli(p) ? 0.0f : scale;
  }
  return Mul(a, Constant(std::move(mask)));
}

}  // namespace armnet::ag
