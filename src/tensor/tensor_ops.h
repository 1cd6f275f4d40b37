#ifndef ARMNET_TENSOR_TENSOR_OPS_H_
#define ARMNET_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

// Pure tensor-level math (no gradient tracking). The autograd layer in
// src/autograd/ composes these into differentiable ops.
//
// Elementwise binary ops broadcast NumPy-style. MatMul treats inputs as
// stacks of matrices ([..., M, K] x [..., K, N]) and broadcasts the leading
// batch dimensions. All functions allocate and return new tensors unless
// documented otherwise.

namespace armnet::tmath {

// --- Elementwise binary (broadcasting) ------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// --- Elementwise with scalar ----------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
// Elementwise a^p (a must be >= 0 unless p is an integer).
Tensor PowScalar(const Tensor& a, float p);

// --- Elementwise unary ----------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
// max(a, lo) elementwise.
Tensor ClampMin(const Tensor& a, float lo);
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Matrix multiply -------------------------------------------------------
// [..., M, K] x [..., K, N] -> [..., M, N], broadcasting batch dims.
// Rank-1 inputs are NOT auto-promoted; callers reshape explicitly.
Tensor MatMul(const Tensor& a, const Tensor& b);

// Swaps two dimensions (materializes a copy).
Tensor Transpose(const Tensor& a, int dim0, int dim1);

// --- Reductions -------------------------------------------------------------
// Sum of all elements as a rank-0 tensor.
Tensor SumAll(const Tensor& a);
// Sum along `axis` (negative counts from the end).
Tensor Sum(const Tensor& a, int axis, bool keepdim);
Tensor Mean(const Tensor& a, int axis, bool keepdim);
// Reduces `a` to `target` by summing over broadcast dimensions; inverse of
// broadcasting, used in op backward passes. `a`'s shape must be the result
// of broadcasting `target` against something.
Tensor SumTo(const Tensor& a, const Shape& target);
// Materializes `a` broadcast to `target` (a must be broadcastable to it).
Tensor BroadcastTo(const Tensor& a, const Shape& target);

// --- Structural -------------------------------------------------------------
Tensor Concat(const std::vector<Tensor>& parts, int axis);
// Elements [start, start+length) along `axis`.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length);
// Inverse of Slice for gradients: returns zeros of `full` shape with `a`
// pasted at [start, start+a.dim(axis)) along `axis`.
Tensor SliceBackward(const Tensor& a, const Shape& full, int axis,
                     int64_t start);

// Picks `indices` along `axis`: out[..., k, ...] = a[..., indices[k], ...].
Tensor IndexSelect(const Tensor& a, int axis,
                   const std::vector<int64_t>& indices);
// Gradient of IndexSelect: scatter-adds `g` back into a zeros tensor of
// shape `full` along `axis` at `indices` (duplicates accumulate).
Tensor IndexSelectBackward(const Tensor& g, const Shape& full, int axis,
                           const std::vector<int64_t>& indices);

// --- Indexed ----------------------------------------------------------------
// Aborts (naming the first offending id) unless every id is in [0, rows).
// One branch-free pre-scan over the ids; the gather/scatter copy loops run
// unchecked after it, which is the hot-path contract from PR 5 kept at a
// hoisted cost (see bench_micro_kernels BM_GatherRows).
void CheckRowIds(const std::vector<int64_t>& ids, int64_t rows,
                 const char* op_name);
// Rows of `table` ([M, width]) selected by `ids` -> [ids.size(), width].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids);
// GatherRows into a caller-provided [ids.size(), width] tensor.
void GatherRowsOut(const Tensor& table, const std::vector<int64_t>& ids,
                   Tensor& out);
// dest[ids[i], :] += src[i, :]; dest is modified in place.
void ScatterAddRows(Tensor& dest, const std::vector<int64_t>& ids,
                    const Tensor& src);

// --- Softmax ----------------------------------------------------------------
// Numerically stable softmax over the last dimension.
Tensor SoftmaxLastDim(const Tensor& a);

}  // namespace armnet::tmath

#endif  // ARMNET_TENSOR_TENSOR_OPS_H_
