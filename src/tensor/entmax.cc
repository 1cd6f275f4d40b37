#include "tensor/entmax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace armnet::tmath {

namespace {

// Exact sparsemax on one row: p = [z − τ]_+ with τ from the sorted support
// condition of Martins & Astudillo (2016).
void SparsemaxRow(const float* z, float* p, int64_t d) {
  std::vector<float> sorted(z, z + d);
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  double cumulative = 0;
  double tau = 0;
  int64_t support = 0;
  for (int64_t k = 0; k < d; ++k) {
    cumulative += sorted[static_cast<size_t>(k)];
    // Candidate threshold with support size k+1.
    const double candidate = (cumulative - 1.0) / static_cast<double>(k + 1);
    if (sorted[static_cast<size_t>(k)] > candidate) {
      tau = candidate;
      support = k + 1;
    }
  }
  (void)support;
  for (int64_t j = 0; j < d; ++j) {
    const double v = static_cast<double>(z[j]) - tau;
    p[j] = v > 0 ? static_cast<float>(v) : 0.0f;
  }
}

// Exact α = 1.5 entmax on one row: p_i = [z_i/2 − τ]_+², τ from the largest
// support size k whose quadratic threshold keeps the k-th entry positive.
void Entmax15Row(const float* z, float* p, int64_t d) {
  std::vector<double> half(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) half[static_cast<size_t>(j)] = 0.5 * z[j];
  std::vector<double> sorted = half;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());

  double tau = sorted[0] - 1.0;  // fallback: full mass on the max
  double cum = 0;
  double cum_sq = 0;
  for (int64_t k = 0; k < d; ++k) {
    const double v = sorted[static_cast<size_t>(k)];
    cum += v;
    cum_sq += v * v;
    const double kk = static_cast<double>(k + 1);
    const double mean = cum / kk;
    // Sum of squared deviations within the candidate support.
    const double ss = cum_sq - cum * cum / kk;
    const double discriminant = (1.0 - ss) / kk;
    if (discriminant < 0) continue;
    const double candidate = mean - std::sqrt(discriminant);
    if (v > candidate) tau = candidate;
  }
  double total = 0;
  for (int64_t j = 0; j < d; ++j) {
    const double v = half[static_cast<size_t>(j)] - tau;
    const double pj = v > 0 ? v * v : 0.0;
    p[j] = static_cast<float>(pj);
    total += pj;
  }
  // Guard against floating-point drift: renormalize.
  const float inv = static_cast<float>(1.0 / total);
  for (int64_t j = 0; j < d; ++j) p[j] *= inv;
}

// Runs a sort-based row solver on every row. A row holding a NaN or ±Inf
// becomes an all-NaN row without reaching the solver: NaN breaks std::sort's
// strict weak ordering, which is undefined behaviour.
template <typename RowFn>
Tensor ApplyRows(const Tensor& z, RowFn row_fn) {
  ARMNET_CHECK_GE(z.rank(), 1);
  const int64_t d = z.dim(-1);
  ARMNET_CHECK_GT(d, 0);
  Tensor out(z.shape());
  const int64_t rows = z.numel() / d;
  for (int64_t r = 0; r < rows; ++r) {
    const float* zr = z.data() + r * d;
    float* pr = out.data() + r * d;
    if (std::all_of(zr, zr + d, [](float v) { return std::isfinite(v); })) {
      row_fn(zr, pr, d);
    } else {
      std::fill(pr, pr + d, std::numeric_limits<float>::quiet_NaN());
    }
  }
  return out;
}

}  // namespace

Tensor SparsemaxLastDim(const Tensor& z) { return ApplyRows(z, SparsemaxRow); }

Tensor Entmax15ExactLastDim(const Tensor& z) {
  return ApplyRows(z, Entmax15Row);
}

Tensor EntmaxLastDim(const Tensor& z, float alpha) {
  ARMNET_CHECK_GE(alpha, 1.0f) << "entmax requires alpha >= 1";
  if (alpha == 1.0f) return SoftmaxLastDim(z);
  if (alpha == 2.0f) return SparsemaxLastDim(z);
  if (alpha == 1.5f) return Entmax15ExactLastDim(z);
  ARMNET_CHECK_GE(z.rank(), 1);
  const int64_t d = z.dim(-1);
  ARMNET_CHECK_GT(d, 0);
  Tensor out(z.shape());
  kernels::EntmaxRows(z.data(), out.data(), z.numel() / d, d, alpha);
  return out;
}

}  // namespace armnet::tmath
