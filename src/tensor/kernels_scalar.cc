// Scalar reference kernels. This translation unit is compiled with
// auto-vectorization disabled (see CMakeLists.txt) so that it is an honest
// "plain CPU" baseline for the backend comparison in the Table 3 bench.

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/half.h"
#include "tensor/kernels.h"

namespace armnet::kernels::scalar {

void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void VecSub(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void VecMul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void VecDiv(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}

void VecScale(const float* a, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void VecAxpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void VecExp(const float* a, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::exp(a[i]);
}

float VecDot(const float* a, const float* b, int64_t n) {
  float acc = 0;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float VecSum(const float* a, int64_t n) {
  float acc = 0;
  for (int64_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float* arow = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(src[i]) * scale;
  }
}

void DequantRowF16(const uint16_t* src, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = HalfToFloat(src[i]);
}

void VecSupportPow(const float* a, float exponent, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = a[i] > 0 ? std::exp(exponent * std::log(a[i])) : 0.0f;
  }
}

// The same iteration as simd::EntmaxRows, one row at a time; see the
// comments there.
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha) {
  const float am1 = alpha - 1.0f;
  const float inv_am1 = 1.0f / am1;
  for (int64_t r = 0; r < rows; ++r) {
    const float* zr = z + r * d;
    float* pr = p + r * d;
    bool finite = true;
    float z_max = zr[0];
    for (int64_t j = 0; j < d; ++j) {
      finite = finite && std::isfinite(zr[j]);
      z_max = std::max(z_max, zr[j]);
    }
    if (!finite) {
      std::fill(pr, pr + d, std::numeric_limits<float>::quiet_NaN());
      continue;
    }
    float candidate_sum = 0;
    float candidate_count = 0;
    for (int64_t j = 0; j < d; ++j) {
      pr[j] = am1 * (zr[j] - z_max);  // shifted scores, stashed in the output
      if (pr[j] > -1.0f) {
        candidate_sum += pr[j];
        candidate_count += 1.0f;
      }
    }
    float lo = -1.0f;
    float hi = 0.0f;
    float tau = lo;
    if (alpha <= 2.0f) {
      tau = std::max(lo, candidate_sum / candidate_count -
                             std::exp(-am1 * std::log(candidate_count)));
    }
    float step = hi - lo;
    for (;;) {
      float residual = -1.0f;
      float slope = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float v = pr[j] - tau;
        if (v > 0) {
          const float pj = std::exp(inv_am1 * std::log(v));
          residual += pj;
          slope += pj / v;
        }
      }
      if (std::fabs(residual) <= kEntmaxResidualTol) break;
      if (residual > 0) {
        lo = tau;
      } else {
        hi = tau;
      }
      if (hi - lo <= kEntmaxBracketTol) break;
      float next = tau + residual / (inv_am1 * slope);
      if (!(next > lo && next < hi) || std::fabs(next - tau) > 0.5f * step) {
        next = 0.5f * (lo + hi);
      }
      step = std::fabs(next - tau);
      tau = next;
    }
    float total = 0;
    for (int64_t j = 0; j < d; ++j) {
      const float v = pr[j] - tau;
      pr[j] = v > 0 ? std::exp(inv_am1 * std::log(v)) : 0.0f;
      total += pr[j];
    }
    const float inv = 1.0f / total;
    for (int64_t j = 0; j < d; ++j) pr[j] *= inv;
  }
}

}  // namespace armnet::kernels::scalar
