#include "tensor/kernels.h"

#include <atomic>

#include "util/check.h"

namespace armnet {

namespace {

std::atomic<Backend>& ActiveBackend() {
  static std::atomic<Backend> backend{SimdAvailable() ? Backend::kSimd
                                                      : Backend::kScalar};
  return backend;
}

}  // namespace

bool SimdAvailable() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool F16cAvailable() {
  return SimdAvailable() && __builtin_cpu_supports("f16c");
}

Backend GetBackend() { return ActiveBackend().load(std::memory_order_relaxed); }

void SetBackend(Backend backend) {
  if (backend == Backend::kSimd) {
    ARMNET_CHECK(SimdAvailable()) << "AVX2+FMA not available on this CPU";
  }
  ActiveBackend().store(backend, std::memory_order_relaxed);
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSimd:
      return "simd";
  }
  return "unknown";
}

namespace kernels {

#define ARMNET_DISPATCH(fn, ...)                \
  if (GetBackend() == Backend::kSimd) {         \
    return simd::fn(__VA_ARGS__);               \
  }                                             \
  return scalar::fn(__VA_ARGS__)

// Every dispatcher DCHECKs its pointer/size preconditions before entering the
// raw-pointer implementations; the scalar/simd bodies themselves stay
// check-free so the backend comparison measures arithmetic only. Null
// pointers are tolerated for empty ranges (a zero-element tensor has no
// storage to point at).
#define ARMNET_KERNEL_PRECONDITIONS2(a, b, n)                     \
  ARMNET_DCHECK_GE(n, 0);                                         \
  ARMNET_DCHECK((n) == 0 || ((a) != nullptr && (b) != nullptr))

#define ARMNET_KERNEL_PRECONDITIONS3(a, b, out, n) \
  ARMNET_KERNEL_PRECONDITIONS2(a, b, n);           \
  ARMNET_DCHECK((n) == 0 || (out) != nullptr)

void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS3(a, b, out, n);
  ARMNET_DISPATCH(VecAdd, a, b, out, n);
}
void VecSub(const float* a, const float* b, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS3(a, b, out, n);
  ARMNET_DISPATCH(VecSub, a, b, out, n);
}
void VecMul(const float* a, const float* b, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS3(a, b, out, n);
  ARMNET_DISPATCH(VecMul, a, b, out, n);
}
void VecDiv(const float* a, const float* b, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS3(a, b, out, n);
  ARMNET_DISPATCH(VecDiv, a, b, out, n);
}
void VecScale(const float* a, float s, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(a, out, n);
  ARMNET_DISPATCH(VecScale, a, s, out, n);
}
void VecAxpy(float alpha, const float* x, float* y, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(x, y, n);
  ARMNET_DISPATCH(VecAxpy, alpha, x, y, n);
}
void VecExp(const float* a, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(a, out, n);
  ARMNET_DISPATCH(VecExp, a, out, n);
}
float VecDot(const float* a, const float* b, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(a, b, n);
  ARMNET_DISPATCH(VecDot, a, b, n);
}
float VecSum(const float* a, int64_t n) {
  ARMNET_DCHECK_GE(n, 0);
  ARMNET_DCHECK(n == 0 || a != nullptr);
  ARMNET_DISPATCH(VecSum, a, n);
}
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c) {
  ARMNET_DCHECK(m >= 0 && n >= 0 && k >= 0);
  ARMNET_DCHECK(m == 0 || n == 0 || c != nullptr);
  ARMNET_DCHECK(m == 0 || n == 0 || k == 0 ||
                (a != nullptr && b != nullptr));
  ARMNET_DISPATCH(Gemm, m, n, k, a, b, beta, c);
}
void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(src, out, n);
  ARMNET_DISPATCH(DequantRowI8, src, scale, out, n);
}
void DequantRowF16(const uint16_t* src, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(src, out, n);
  // The fp16 SIMD path needs F16C on top of AVX2+FMA; fall back to the
  // portable bit-twiddle conversion when the CPU lacks it.
  if (GetBackend() == Backend::kSimd && F16cAvailable()) {
    return simd::DequantRowF16(src, out, n);
  }
  return scalar::DequantRowF16(src, out, n);
}

void VecSupportPow(const float* a, float exponent, float* out, int64_t n) {
  ARMNET_KERNEL_PRECONDITIONS2(a, out, n);
  ARMNET_DISPATCH(VecSupportPow, a, exponent, out, n);
}
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha) {
  ARMNET_DCHECK(rows >= 0 && d > 0);
  ARMNET_DCHECK(rows == 0 || (z != nullptr && p != nullptr));
  ARMNET_DCHECK(alpha > 1.0f);
  ARMNET_DISPATCH(EntmaxRows, z, p, rows, d, alpha);
}

#undef ARMNET_DISPATCH
#undef ARMNET_KERNEL_PRECONDITIONS2
#undef ARMNET_KERNEL_PRECONDITIONS3

}  // namespace kernels
}  // namespace armnet
