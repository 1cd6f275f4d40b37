#ifndef ARMNET_TENSOR_KERNELS_H_
#define ARMNET_TENSOR_KERNELS_H_

#include <cstdint>

#include "tensor/backend.h"

// Low-level contiguous-array kernels with two implementations each: a scalar
// reference (kernels_scalar.cc, vectorization disabled) and an AVX2+FMA
// version (kernels_simd.cc). The dispatching wrappers in namespace
// armnet::kernels select by the active Backend.
//
// Only the kernels that dominate model runtime are dualized; everything else
// in tensor_ops.cc is plain portable C++.

namespace armnet::kernels {

// Stopping rule of the α-entmax solver (EntmaxRows, DESIGN.md §6). A row
// stops once |Σp(τ) − 1| ≤ kEntmaxResidualTol, or once its bracket on τ is
// no wider than kEntmaxBracketTol (τ lies in [−1, 0] after the max shift,
// so this is one float32 ulp at |τ| = 1).
inline constexpr float kEntmaxResidualTol = 1e-6f;
inline constexpr float kEntmaxBracketTol = 1.1920929e-7f;  // 2^-23

namespace scalar {
void VecAdd(const float* a, const float* b, float* out, int64_t n);
void VecSub(const float* a, const float* b, float* out, int64_t n);
void VecMul(const float* a, const float* b, float* out, int64_t n);
void VecDiv(const float* a, const float* b, float* out, int64_t n);
void VecScale(const float* a, float s, float* out, int64_t n);
void VecAxpy(float alpha, const float* x, float* y, int64_t n);
void VecExp(const float* a, float* out, int64_t n);
float VecDot(const float* a, const float* b, int64_t n);
float VecSum(const float* a, int64_t n);
// C[M,N] = beta * C + A[M,K] * B[K,N] (all row-major, contiguous).
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c);
// Dequantize one embedding row: out[i] = src[i] * scale (symmetric int8).
void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n);
// Dequantize one fp16 row: out[i] = HalfToFloat(src[i]).
void DequantRowF16(const uint16_t* src, float* out, int64_t n);
// out[i] = a[i]^exponent where a[i] > 0, else 0 (the support of a sparse
// probability row; NaN counts as off the support).
void VecSupportPow(const float* a, float exponent, float* out, int64_t n);
// α-entmax (α > 1) over `rows` contiguous rows of length d. Row r of `p` is
// [(α−1)(z_r − max z_r) − τ_r]_+^{1/(α−1)}, renormalized, with τ_r found by
// safeguarded Newton inside [−1, 0]. A row holding a NaN or ±Inf yields an
// all-NaN row. Each output row depends only on its own input row, bit for
// bit, whatever the other rows and the row's position in the batch.
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha);
}  // namespace scalar

namespace simd {
void VecAdd(const float* a, const float* b, float* out, int64_t n);
void VecSub(const float* a, const float* b, float* out, int64_t n);
void VecMul(const float* a, const float* b, float* out, int64_t n);
void VecDiv(const float* a, const float* b, float* out, int64_t n);
void VecScale(const float* a, float s, float* out, int64_t n);
void VecAxpy(float alpha, const float* x, float* y, int64_t n);
void VecExp(const float* a, float* out, int64_t n);
float VecDot(const float* a, const float* b, int64_t n);
float VecSum(const float* a, int64_t n);
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c);
void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n);
// Requires F16C (dispatcher guards on F16cAvailable()).
void DequantRowF16(const uint16_t* src, float* out, int64_t n);
void VecSupportPow(const float* a, float exponent, float* out, int64_t n);
// Solves 8 rows per AVX2 register group, one row per lane.
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha);
}  // namespace simd

// Dispatching wrappers.
void VecAdd(const float* a, const float* b, float* out, int64_t n);
void VecSub(const float* a, const float* b, float* out, int64_t n);
void VecMul(const float* a, const float* b, float* out, int64_t n);
void VecDiv(const float* a, const float* b, float* out, int64_t n);
void VecScale(const float* a, float s, float* out, int64_t n);
void VecAxpy(float alpha, const float* x, float* y, int64_t n);
void VecExp(const float* a, float* out, int64_t n);
float VecDot(const float* a, const float* b, int64_t n);
float VecSum(const float* a, int64_t n);
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c);
void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n);
void DequantRowF16(const uint16_t* src, float* out, int64_t n);
void VecSupportPow(const float* a, float exponent, float* out, int64_t n);
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha);

}  // namespace armnet::kernels

#endif  // ARMNET_TENSOR_KERNELS_H_
