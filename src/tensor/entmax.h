#ifndef ARMNET_TENSOR_ENTMAX_H_
#define ARMNET_TENSOR_ENTMAX_H_

#include "tensor/tensor.h"

// Value-level α-entmax solvers over the last dimension (Peters, Niculae,
// Martins — ACL 2019). The differentiable wrapper lives in autograd/entmax.h.
//
//   * α = 1: closed-form softmax,
//   * α = 2: exact sort-based sparsemax (Martins & Astudillo 2016),
//   * α = 1.5: exact sort-based closed form,
//   * other α > 1: safeguarded Newton on the threshold τ, then renormalized
//     (kernels::EntmaxRows; scalar or SIMD by the active Backend).
//
// On every path a row holding a NaN or ±Inf yields an all-NaN output row and
// leaves the other rows untouched, and each output row depends only on its
// own input row.

namespace armnet::tmath {

// α-entmax over the last dimension. Requires alpha >= 1.
Tensor EntmaxLastDim(const Tensor& z, float alpha);

// Exact sparsemax (α = 2) over the last dimension.
Tensor SparsemaxLastDim(const Tensor& z);

// Exact α = 1.5 entmax over the last dimension (sort-based closed form).
Tensor Entmax15ExactLastDim(const Tensor& z);

}  // namespace armnet::tmath

#endif  // ARMNET_TENSOR_ENTMAX_H_
