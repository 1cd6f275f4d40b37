// AVX2+FMA kernels. Compiled with -mavx2 -mfma (see CMakeLists.txt); callers
// must check SimdAvailable() before routing work here, which the dispatcher
// in kernels.cc guarantees.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/half.h"
#include "tensor/kernels.h"

namespace armnet::kernels::simd {

namespace {

// Vectorized expf with Cephes-style polynomial, accurate to ~1 ulp over the
// range the models produce. Falls back to clamping for extreme inputs the
// same way scalar expf saturates.
inline __m256 Exp256(__m256 x) {
  const __m256 kExpHi = _mm256_set1_ps(88.3762626647950f);
  const __m256 kExpLo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 kLog2E = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kP0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 kP1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 kP2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 kP3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 kP4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 kP5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 kOne = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(x, kExpHi);
  x = _mm256_max_ps(x, kExpLo);

  // Express exp(x) as 2^n * exp(r) with r in [-ln2/2, ln2/2].
  __m256 fx = _mm256_fmadd_ps(x, kLog2E, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, kC1, x);
  x = _mm256_fnmadd_ps(fx, kC2, x);

  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 y = kP0;
  y = _mm256_fmadd_ps(y, x, kP1);
  y = _mm256_fmadd_ps(y, x, kP2);
  y = _mm256_fmadd_ps(y, x, kP3);
  y = _mm256_fmadd_ps(y, x, kP4);
  y = _mm256_fmadd_ps(y, x, kP5);
  y = _mm256_fmadd_ps(y, x2, _mm256_add_ps(x, kOne));

  // Scale by 2^n via exponent bit manipulation.
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

// Vectorized logf for positive normal inputs, the Cephes counterpart of
// Exp256: x = m·2^k with m in [√½, √2), log x = k·ln2 + log m, log m from a
// degree-9 polynomial in m − 1. Zero, negative, denormal and NaN inputs give
// unspecified values; callers mask those lanes.
inline __m256 Log256(__m256 x) {
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 kSqrtHalf = _mm256_set1_ps(0.707106781186547524f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kP0 = _mm256_set1_ps(7.0376836292e-2f);
  const __m256 kP1 = _mm256_set1_ps(-1.1514610310e-1f);
  const __m256 kP2 = _mm256_set1_ps(1.1676998740e-1f);
  const __m256 kP3 = _mm256_set1_ps(-1.2420140846e-1f);
  const __m256 kP4 = _mm256_set1_ps(1.4249322787e-1f);
  const __m256 kP5 = _mm256_set1_ps(-1.6668057665e-1f);
  const __m256 kP6 = _mm256_set1_ps(2.0000714765e-1f);
  const __m256 kP7 = _mm256_set1_ps(-2.4999993993e-1f);
  const __m256 kP8 = _mm256_set1_ps(3.3333331174e-1f);

  // Split into mantissa m in [0.5, 1) and exponent k (frexp).
  const __m256i bits = _mm256_castps_si256(x);
  __m256 k = _mm256_cvtepi32_ps(
      _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(126)));
  __m256 m = _mm256_castsi256_ps(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi32(0x007fffff)),
                      _mm256_set1_epi32(0x3f000000)));
  // Fold m into [√½, √2): below √½ take 2m and k − 1. r = m − 1.
  const __m256 small = _mm256_cmp_ps(m, kSqrtHalf, _CMP_LT_OQ);
  k = _mm256_sub_ps(k, _mm256_and_ps(small, kOne));
  const __m256 r = _mm256_add_ps(_mm256_sub_ps(m, kOne),
                                 _mm256_and_ps(small, m));

  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 y = kP0;
  y = _mm256_fmadd_ps(y, r, kP1);
  y = _mm256_fmadd_ps(y, r, kP2);
  y = _mm256_fmadd_ps(y, r, kP3);
  y = _mm256_fmadd_ps(y, r, kP4);
  y = _mm256_fmadd_ps(y, r, kP5);
  y = _mm256_fmadd_ps(y, r, kP6);
  y = _mm256_fmadd_ps(y, r, kP7);
  y = _mm256_fmadd_ps(y, r, kP8);
  y = _mm256_mul_ps(_mm256_mul_ps(y, r), r2);
  y = _mm256_fmadd_ps(k, kC2, y);
  y = _mm256_fnmadd_ps(_mm256_set1_ps(0.5f), r2, y);
  return _mm256_fmadd_ps(k, kC1, _mm256_add_ps(r, y));
}

// x^e on lanes where x > 0, 0 elsewhere (NaN included).
inline __m256 SupportPow256(__m256 x, __m256 e) {
  const __m256 positive = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ);
  return _mm256_and_ps(positive, Exp256(_mm256_mul_ps(e, Log256(x))));
}

inline __m256 Abs256(__m256 x) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
}

inline float HSum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

}  // namespace

void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void VecSub(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void VecMul(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void VecDiv(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] / b[i];
}

void VecScale(const float* a, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void VecAxpy(float alpha, const float* x, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void VecExp(const float* a, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Exp256(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) out[i] = std::exp(a[i]);
}

float VecDot(const float* a, const float* b, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float total = HSum256(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

float VecSum(const float* a, int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
  }
  float total = HSum256(acc);
  for (; i < n; ++i) total += a[i];
  return total;
}

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      int64_t j = 0;
      const __m256 z = _mm256_setzero_ps();
      for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, z);
      for (; j < n; ++j) crow[j] = 0.0f;
    } else if (beta != 1.0f) {
      VecScale(crow, beta, crow, n);
    }
    const float* arow = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      const __m256 vav = _mm256_set1_ps(av);
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void DequantRowI8(const int8_t* src, float scale, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Sign-extend 8 int8 lanes to int32, convert to float, scale.
    const __m128i packed =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m256i wide = _mm256_cvtepi8_epi32(packed);
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_cvtepi32_ps(wide), vs));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(src[i]) * scale;
}

void DequantRowF16(const uint16_t* src, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i packed =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(packed));
  }
  for (; i < n; ++i) out[i] = HalfToFloat(src[i]);
}

void VecSupportPow(const float* a, float exponent, float* out, int64_t n) {
  const __m256 ve = _mm256_set1_ps(exponent);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, SupportPow256(_mm256_loadu_ps(a + i), ve));
  }
  for (; i < n; ++i) {
    out[i] = a[i] > 0 ? std::exp(exponent * std::log(a[i])) : 0.0f;
  }
}

// α-entmax, 8 rows at a time with lane = row (DESIGN.md §6). After the max
// shift x = (α−1)(z − max z) ≤ 0, the threshold τ solves
//   f(τ) = Σ_j [x_j − τ]_+^{1/(α−1)} − 1 = 0,   τ in [−1, 0]
// (Peters, Niculae & Martins 2019). f is decreasing; it is convex for α ≤ 2
// and concave above. Each lane runs safeguarded Newton (Numerical Recipes'
// rtsafe): a step that leaves the bracket or fails to halve the previous step
// becomes a bisection. A lane stops on its residual or its bracket width
// (kEntmaxResidualTol, kEntmaxBracketTol), never on a fixed count, and a
// stopped lane's τ and powers are frozen while its neighbours iterate on.
// Every operation is lane-wise and a tail group repeats a real row in its
// spare lanes, so a row's gate does not depend on the rows batched with it.
// A NaN or ±Inf lane never iterates: its residual would never converge.
void EntmaxRows(const float* z, float* p, int64_t rows, int64_t d,
                float alpha) {
  constexpr int kLanes = 8;
  constexpr int64_t kStackCap = 64;  // ARM-Net rows are m ≤ 43 fields wide
  float stack_buffer[2 * kLanes * kStackCap];
  std::vector<float> heap_buffer;
  float* buffer = stack_buffer;
  if (d > kStackCap) {
    heap_buffer.resize(static_cast<size_t>(2 * kLanes * d));
    buffer = heap_buffer.data();
  }
  // Transposed scores, and each lane's powers [x_j − τ]_+^{1/(α−1)} at its
  // latest τ: entry j of the row in `lane` sits at [j * kLanes + lane].
  float* const scores = buffer;
  float* const powers = buffer + kLanes * d;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 minus_one = _mm256_set1_ps(-1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 am1 = _mm256_set1_ps(alpha - 1.0f);
  const __m256 inv_am1 = _mm256_set1_ps(1.0f / (alpha - 1.0f));
  const __m256 residual_tol = _mm256_set1_ps(kEntmaxResidualTol);
  const __m256 bracket_tol = _mm256_set1_ps(kEntmaxBracketTol);
  const __m256 largest = _mm256_set1_ps(std::numeric_limits<float>::max());
  const __m256 nan = _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN());

  for (int64_t r0 = 0; r0 < rows; r0 += kLanes) {
    const int64_t live = std::min<int64_t>(kLanes, rows - r0);
    for (int lane = 0; lane < kLanes; ++lane) {
      const float* zr = z + (r0 + std::min<int64_t>(lane, live - 1)) * d;
      for (int64_t j = 0; j < d; ++j) scores[j * kLanes + lane] = zr[j];
    }

    // _mm256_max_ps drops a NaN operand, so finiteness is its own test: an
    // ordered |z| ≤ FLT_MAX fails for NaN and ±Inf alike.
    __m256 z_max = _mm256_loadu_ps(scores);
    __m256 finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    for (int64_t j = 0; j < d; ++j) {
      const __m256 x = _mm256_loadu_ps(scores + j * kLanes);
      z_max = _mm256_max_ps(z_max, x);
      finite = _mm256_and_ps(
          finite, _mm256_cmp_ps(Abs256(x), largest, _CMP_LE_OQ));
    }

    // Shift, and gather the mean of the entries that can reach the support
    // (x > −1) for the starting point below.
    __m256 candidate_sum = zero;
    __m256 candidate_count = zero;
    for (int64_t j = 0; j < d; ++j) {
      float* slot = scores + j * kLanes;
      const __m256 x = _mm256_mul_ps(am1, _mm256_sub_ps(_mm256_loadu_ps(slot),
                                                        z_max));
      _mm256_storeu_ps(slot, x);
      _mm256_storeu_ps(powers + j * kLanes, zero);
      const __m256 candidate = _mm256_cmp_ps(x, minus_one, _CMP_GT_OQ);
      candidate_sum = _mm256_add_ps(candidate_sum, _mm256_and_ps(candidate, x));
      candidate_count =
          _mm256_add_ps(candidate_count, _mm256_and_ps(candidate, one));
    }

    // For α ≤ 2, t ↦ t_+^{1/(α−1)} is convex, so by Jensen over the c
    // candidates f(x̄ − c^{1−α}) ≥ 0: that point lies left of the root, from
    // where Newton on a convex decreasing f climbs to it monotonically. It
    // is exact for tied rows, and close for the dense rows ARM-Net's gate
    // sees. Above α = 2 the bound fails; start at the bracket's left end.
    __m256 lo = minus_one;
    __m256 hi = zero;
    __m256 tau = lo;
    if (alpha <= 2.0f) {
      const __m256 spread = Exp256(_mm256_mul_ps(
          _mm256_sub_ps(zero, am1), Log256(candidate_count)));
      tau = _mm256_max_ps(
          lo, _mm256_sub_ps(_mm256_div_ps(candidate_sum, candidate_count),
                            spread));
    }
    __m256 step = one;
    __m256 active = finite;
    while (_mm256_movemask_ps(active) != 0) {
      __m256 residual = minus_one;
      __m256 slope = zero;  // Σ p_j / v_j = −(α−1) f'(τ)
      for (int64_t j = 0; j < d; ++j) {
        const __m256 v =
            _mm256_sub_ps(_mm256_loadu_ps(scores + j * kLanes), tau);
        const __m256 pj = SupportPow256(v, inv_am1);
        _mm256_maskstore_ps(powers + j * kLanes, _mm256_castps_si256(active),
                            pj);
        residual = _mm256_add_ps(residual, pj);
        slope = _mm256_add_ps(
            slope, _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ),
                                 _mm256_div_ps(pj, v)));
      }
      active = _mm256_andnot_ps(
          _mm256_cmp_ps(Abs256(residual), residual_tol, _CMP_LE_OQ), active);
      const __m256 above = _mm256_cmp_ps(residual, zero, _CMP_GT_OQ);
      lo = _mm256_blendv_ps(lo, tau, _mm256_and_ps(active, above));
      hi = _mm256_blendv_ps(hi, tau, _mm256_andnot_ps(above, active));
      active = _mm256_andnot_ps(
          _mm256_cmp_ps(_mm256_sub_ps(hi, lo), bracket_tol, _CMP_LE_OQ),
          active);

      __m256 next = _mm256_add_ps(
          tau, _mm256_div_ps(residual, _mm256_mul_ps(inv_am1, slope)));
      const __m256 newton_ok = _mm256_and_ps(
          _mm256_and_ps(_mm256_cmp_ps(next, lo, _CMP_GT_OQ),
                        _mm256_cmp_ps(next, hi, _CMP_LT_OQ)),
          _mm256_cmp_ps(Abs256(_mm256_sub_ps(next, tau)),
                        _mm256_mul_ps(half, step), _CMP_LE_OQ));
      next = _mm256_blendv_ps(_mm256_mul_ps(half, _mm256_add_ps(lo, hi)),
                              next, newton_ok);
      step = _mm256_blendv_ps(step, Abs256(_mm256_sub_ps(next, tau)), active);
      tau = _mm256_blendv_ps(tau, next, active);
    }

    // Each lane stopped at the τ of its last evaluation, so `powers`
    // already holds its unnormalized gate.
    __m256 total = zero;
    for (int64_t j = 0; j < d; ++j) {
      total = _mm256_add_ps(total, _mm256_loadu_ps(powers + j * kLanes));
    }
    const __m256 inv = _mm256_blendv_ps(nan, _mm256_div_ps(one, total), finite);
    for (int64_t j = 0; j < d; ++j) {
      float* slot = powers + j * kLanes;
      _mm256_storeu_ps(slot, _mm256_mul_ps(_mm256_loadu_ps(slot), inv));
    }
    for (int64_t lane = 0; lane < live; ++lane) {
      float* pr = p + (r0 + lane) * d;
      for (int64_t j = 0; j < d; ++j) pr[j] = powers[j * kLanes + lane];
    }
  }
}

}  // namespace armnet::kernels::simd
