// Property and correctness tests for the α-entmax family (paper Eq. 2/5):
// simplex membership, sparsity monotone in α, agreement between exact and
// general-α solvers, limiting cases, invariances, and Jacobian checks; then
// oracle tests for the general-α kernel (a double-precision bisection and
// the float bisection it replaced), batch independence, backend agreement,
// and non-finite rows.

#include "autograd/entmax.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "tensor/backend.h"
#include "tensor/entmax.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace armnet {
namespace {

int CountZeros(const Tensor& p) {
  int zeros = 0;
  for (int64_t i = 0; i < p.numel(); ++i) zeros += p[i] == 0.0f;
  return zeros;
}

// Parameterized over alpha (x10 to keep the parameter integral).
class EntmaxPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  float alpha() const { return static_cast<float>(GetParam()) / 10.0f; }
};

TEST_P(EntmaxPropertyTest, OutputsLieOnSimplex) {
  Rng rng(31);
  Tensor z = Tensor::Normal(Shape({16, 9}), 0, 2, rng);
  Tensor p = tmath::EntmaxLastDim(z, alpha());
  for (int r = 0; r < 16; ++r) {
    double total = 0;
    for (int j = 0; j < 9; ++j) {
      const float v = p.at({r, j});
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f + 1e-6f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

TEST_P(EntmaxPropertyTest, PreservesRanking) {
  Rng rng(32);
  Tensor z = Tensor::Normal(Shape({8, 7}), 0, 2, rng);
  Tensor p = tmath::EntmaxLastDim(z, alpha());
  for (int r = 0; r < 8; ++r) {
    for (int i = 0; i < 7; ++i) {
      for (int j = 0; j < 7; ++j) {
        if (z.at({r, i}) > z.at({r, j})) {
          EXPECT_GE(p.at({r, i}), p.at({r, j}) - 1e-6f);
        }
      }
    }
  }
}

TEST_P(EntmaxPropertyTest, ShiftInvariant) {
  Rng rng(33);
  Tensor z = Tensor::Normal(Shape({4, 6}), 0, 1, rng);
  Tensor shifted = tmath::AddScalar(z, 5.0f);
  Tensor p1 = tmath::EntmaxLastDim(z, alpha());
  Tensor p2 = tmath::EntmaxLastDim(shifted, alpha());
  EXPECT_TRUE(p1.AllClose(p2, 2e-3f));
}

TEST_P(EntmaxPropertyTest, PermutationEquivariant) {
  Rng rng(34);
  Tensor z = Tensor::Normal(Shape({1, 6}), 0, 2, rng);
  // Reverse the coordinates.
  Tensor reversed(Shape({1, 6}));
  for (int j = 0; j < 6; ++j) reversed[j] = z[5 - j];
  Tensor p = tmath::EntmaxLastDim(z, alpha());
  Tensor p_rev = tmath::EntmaxLastDim(reversed, alpha());
  for (int j = 0; j < 6; ++j) {
    EXPECT_NEAR(p[j], p_rev[5 - j], 2e-4);
  }
}

TEST_P(EntmaxPropertyTest, UniformInputGivesUniformOutput) {
  Tensor z = Tensor::Full(Shape({1, 5}), 1.3f);
  Tensor p = tmath::EntmaxLastDim(z, alpha());
  for (int j = 0; j < 5; ++j) EXPECT_NEAR(p[j], 0.2f, 1e-4);
}

TEST_P(EntmaxPropertyTest, JacobianMatchesFiniteDifferences) {
  Rng rng(35 + GetParam());
  std::vector<Variable> inputs{
      Variable(Tensor::Normal(Shape({3, 6}), 0, 1, rng), true)};
  const float a = alpha();
  auto fn = [a](std::vector<Variable>& in) {
    Variable p = ag::Entmax(in[0], a);
    Variable w = ag::Constant(Tensor::FromVector(
        Shape({6}), {0.3f, -0.2f, 0.5f, 0.1f, -0.4f, 0.25f}));
    return ag::SumAll(ag::Mul(p, w));
  };
  EXPECT_LT(ag::GradCheckMaxError(fn, inputs, 1e-2f), 3e-2);
}

INSTANTIATE_TEST_SUITE_P(Alphas, EntmaxPropertyTest,
                         ::testing::Values(10, 13, 15, 17, 20, 25, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "alpha" + std::to_string(info.param);
                         });

TEST(EntmaxTest, AlphaOneIsSoftmax) {
  Rng rng(36);
  Tensor z = Tensor::Normal(Shape({5, 8}), 0, 2, rng);
  EXPECT_TRUE(tmath::EntmaxLastDim(z, 1.0f)
                  .AllClose(tmath::SoftmaxLastDim(z), 1e-6f));
}

TEST(EntmaxTest, SparsityIncreasesWithAlpha) {
  Rng rng(37);
  Tensor z = Tensor::Normal(Shape({32, 10}), 0, 2, rng);
  int previous_zeros = -1;
  for (float alpha : {1.0f, 1.5f, 2.0f, 3.0f}) {
    const int zeros = CountZeros(tmath::EntmaxLastDim(z, alpha));
    EXPECT_GE(zeros, previous_zeros);
    previous_zeros = zeros;
  }
  EXPECT_EQ(CountZeros(tmath::EntmaxLastDim(z, 1.0f)), 0);
  EXPECT_GT(CountZeros(tmath::EntmaxLastDim(z, 2.0f)), 0);
}

TEST(EntmaxTest, SparsemaxMatchesQuadraticProgramBruteForce) {
  // For d = 2, sparsemax has the closed form:
  // p1 = clamp(0.5 + (z1 - z2)/2, 0, 1).
  for (float delta : {-3.0f, -0.6f, 0.0f, 0.4f, 2.5f}) {
    Tensor z = Tensor::FromVector(Shape({1, 2}), {delta, 0.0f});
    Tensor p = tmath::SparsemaxLastDim(z);
    const float expected = std::clamp(0.5f + delta / 2.0f, 0.0f, 1.0f);
    EXPECT_NEAR(p[0], expected, 1e-5) << "delta=" << delta;
    EXPECT_NEAR(p[1], 1.0f - expected, 1e-5);
  }
}

TEST(EntmaxTest, BisectionMatchesExactSolvers) {
  Rng rng(38);
  Tensor z = Tensor::Normal(Shape({64, 11}), 0, 3, rng);
  // alpha just off 1.5/2.0 routes through the bisection path.
  Tensor b15 = tmath::EntmaxLastDim(z, 1.5f + 1e-6f);
  Tensor e15 = tmath::Entmax15ExactLastDim(z);
  EXPECT_TRUE(b15.AllClose(e15, 5e-4f));

  Tensor b20 = tmath::EntmaxLastDim(z, 2.0f + 1e-6f);
  Tensor e20 = tmath::SparsemaxLastDim(z);
  EXPECT_TRUE(b20.AllClose(e20, 5e-4f));
}

TEST(EntmaxTest, LargeAlphaApproachesArgmax) {
  Tensor z = Tensor::FromVector(Shape({1, 4}), {0.1f, 2.0f, 0.3f, 0.2f});
  Tensor p = tmath::EntmaxLastDim(z, 3.0f);
  EXPECT_GT(p[1], 0.95f);
}

TEST(EntmaxTest, WinnerTakesAllWhenGapIsLarge) {
  Tensor z = Tensor::FromVector(Shape({1, 3}), {10.0f, 0.0f, -5.0f});
  for (float alpha : {1.5f, 1.7f, 2.0f}) {
    Tensor p = tmath::EntmaxLastDim(z, alpha);
    EXPECT_NEAR(p[0], 1.0f, 1e-4) << "alpha=" << alpha;
    EXPECT_NEAR(p[1], 0.0f, 1e-4);
  }
}

TEST(EntmaxTest, SparsemaxGradientZeroOutsideSupport) {
  // With a large gap, entries off the support must get zero gradient.
  Variable z(Tensor::FromVector(Shape({1, 3}), {5.0f, 0.0f, -5.0f}), true);
  Variable p = ag::Entmax(z, 2.0f);
  ag::SumAll(ag::Mul(
                 p, ag::Constant(Tensor::FromVector(Shape({3}),
                                                    {1.0f, 2.0f, 3.0f}))))
      .Backward();
  EXPECT_FLOAT_EQ(z.grad()[2], 0.0f);
}

TEST(EntmaxTest, HandlesWideRowsAndSingletons) {
  Rng rng(39);
  // m = 43 exercises the heap path of the bisection active-set buffer
  // boundary (43 < 64 stays on stack; also try 100).
  for (int64_t d : {1, 43, 100}) {
    Tensor z = Tensor::Normal(Shape({4, d}), 0, 2, rng);
    for (float alpha : {1.0f, 1.5f, 1.7f, 2.0f}) {
      Tensor p = tmath::EntmaxLastDim(z, alpha);
      for (int r = 0; r < 4; ++r) {
        double total = 0;
        for (int64_t j = 0; j < d; ++j) total += p.at({r, j});
        EXPECT_NEAR(total, 1.0, 1e-4) << "d=" << d << " alpha=" << alpha;
      }
    }
  }
  // A single-element row always maps to probability 1.
  Tensor one = Tensor::FromVector(Shape({1, 1}), {-7.5f});
  EXPECT_NEAR(tmath::EntmaxLastDim(one, 1.7f)[0], 1.0f, 1e-6);
}

TEST(EntmaxTest, BatchedShapePreserved) {
  Rng rng(40);
  Tensor z = Tensor::Normal(Shape({2, 3, 4, 5}), 0, 1, rng);
  Tensor p = tmath::EntmaxLastDim(z, 1.5f);
  EXPECT_EQ(p.shape(), z.shape());
}

// --- General-α kernel: oracles, batch independence, backends -------------

// The float solver kernels::EntmaxRows replaced, kept as a reference: 24
// halvings of τ over [max((α−1)z) − 1, max((α−1)z)], then renormalized.
void OldBisectionRow(const float* z, float* p, int64_t d, float alpha) {
  const float am1 = alpha - 1.0f;
  const float inv_am1 = 1.0f / am1;
  float z_max = -std::numeric_limits<float>::infinity();
  for (int64_t j = 0; j < d; ++j) {
    p[j] = am1 * z[j];
    z_max = std::max(z_max, p[j]);
  }
  float lo = z_max - 1.0f;
  float hi = z_max;
  for (int iteration = 0; iteration < 24; ++iteration) {
    const float mid = 0.5f * (lo + hi);
    float total = 0;
    for (int64_t j = 0; j < d; ++j) {
      const float v = p[j] - mid;
      if (v > 0) total += std::exp(inv_am1 * std::log(v));
    }
    if (total < 1.0f) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const float tau = 0.5f * (lo + hi);
  float total = 0;
  for (int64_t j = 0; j < d; ++j) {
    const float v = p[j] - tau;
    p[j] = v > 0 ? std::exp(inv_am1 * std::log(v)) : 0.0f;
    total += p[j];
  }
  for (int64_t j = 0; j < d; ++j) p[j] /= total;
}

// Double-precision bisection run until the bracket stops shrinking.
std::vector<double> OracleRow(const float* z, int64_t d, double alpha) {
  const double am1 = alpha - 1.0;
  double z_max = z[0];
  for (int64_t j = 0; j < d; ++j) z_max = std::max(z_max, double{z[j]});
  std::vector<double> x(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) {
    x[static_cast<size_t>(j)] = am1 * (z[j] - z_max);
  }
  double lo = -1.0;
  double hi = 0.0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    double total = 0;
    for (double xj : x) {
      if (xj > mid) total += std::pow(xj - mid, 1.0 / am1);
    }
    (total < 1.0 ? hi : lo) = mid;
  }
  std::vector<double> p(x.size());
  double total = 0;
  for (size_t j = 0; j < x.size(); ++j) {
    p[j] = x[j] > lo ? std::pow(x[j] - lo, 1.0 / am1) : 0.0;
    total += p[j];
  }
  for (double& pj : p) pj /= total;
  return p;
}

// Rows at three score spreads: ARM-Net's narrow gate scores (σ = 0.1, full
// support at d = 10), N(0, 1) and a wide N(0, 3) with one- or two-entry
// supports.
Tensor SpreadRows(int64_t rows_per_spread, int64_t d, uint64_t seed) {
  Rng rng(seed);
  const float spreads[] = {0.1f, 1.0f, 3.0f};
  Tensor z(Shape({3 * rows_per_spread, d}));
  int64_t i = 0;
  for (float sigma : spreads) {
    Tensor part = Tensor::Normal(Shape({rows_per_spread, d}), 0, sigma, rng);
    for (int64_t k = 0; k < part.numel(); ++k) z[i++] = part[k];
  }
  return z;
}

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> backends{Backend::kScalar};
  if (SimdAvailable()) backends.push_back(Backend::kSimd);
  return backends;
}

Tensor SolveRows(Backend backend, const Tensor& z, float alpha) {
  const int64_t d = z.dim(-1);
  Tensor p(z.shape());
  if (backend == Backend::kSimd) {
    kernels::simd::EntmaxRows(z.data(), p.data(), z.numel() / d, d, alpha);
  } else {
    kernels::scalar::EntmaxRows(z.data(), p.data(), z.numel() / d, d, alpha);
  }
  return p;
}

double MaxErrorVsOracle(const Tensor& z, const Tensor& p, float alpha) {
  const int64_t d = z.dim(-1);
  double worst = 0;
  for (int64_t r = 0; r < z.numel() / d; ++r) {
    const std::vector<double> q = OracleRow(z.data() + r * d, d, alpha);
    for (int64_t j = 0; j < d; ++j) {
      worst = std::max(worst,
                       std::fabs(p[r * d + j] - q[static_cast<size_t>(j)]));
    }
  }
  return worst;
}

Tensor OldBisection(const Tensor& z, float alpha) {
  const int64_t d = z.dim(-1);
  Tensor p(z.shape());
  for (int64_t r = 0; r < z.numel() / d; ++r) {
    OldBisectionRow(z.data() + r * d, p.data() + r * d, d, alpha);
  }
  return p;
}

TEST(EntmaxSolverTest, MatchesDoubleOracleUpToAlphaTwo) {
  // 1.5 and 2.0 call the kernel directly, bypassing the exact solvers.
  for (int64_t d : {10, 39, 43}) {
    const Tensor z = SpreadRows(48, d, 50 + d);
    for (float alpha : {1.3f, 1.5f, 1.7f, 2.0f}) {
      for (Backend backend : AvailableBackends()) {
        EXPECT_LE(MaxErrorVsOracle(z, SolveRows(backend, z, alpha), alpha),
                  1e-6)
            << BackendName(backend) << " d=" << d << " alpha=" << alpha;
      }
    }
  }
}

TEST(EntmaxSolverTest, AboveAlphaTwoWithinFourTimesOldBisectionError) {
  // Near the support boundary p = v^{1/(α−1)} has unbounded slope for
  // α > 2, so float rounding of the scores alone costs ~1e-4 at α = 3;
  // the bound is relative to the old solver's own error.
  for (int64_t d : {10, 39, 43}) {
    const Tensor z = SpreadRows(48, d, 60 + d);
    for (float alpha : {2.5f, 3.0f}) {
      const double old_error =
          MaxErrorVsOracle(z, OldBisection(z, alpha), alpha);
      for (Backend backend : AvailableBackends()) {
        EXPECT_LE(MaxErrorVsOracle(z, SolveRows(backend, z, alpha), alpha),
                  4 * old_error)
            << BackendName(backend) << " d=" << d << " alpha=" << alpha;
      }
    }
  }
}

TEST(EntmaxSolverTest, AgreesWithOldBisectionAtArmNetAlpha) {
  for (int64_t d : {10, 39, 43}) {
    const Tensor z = SpreadRows(64, d, 70 + d);
    const Tensor old = OldBisection(z, 1.7f);
    for (Backend backend : AvailableBackends()) {
      EXPECT_TRUE(SolveRows(backend, z, 1.7f).AllClose(old, 1e-6f))
          << BackendName(backend) << " d=" << d;
    }
  }
}

TEST(EntmaxSolverTest, RowsAreBatchIndependentBitForBit) {
  // 13 rows: one full 8-row group and a 5-row tail group. The same rows
  // shifted by three change every row's lane and group neighbours.
  constexpr int64_t kRows = 13;
  constexpr int64_t kShift = 3;
  for (int64_t d : {1, 10, 39, 43, 100}) {
    Rng rng(80 + d);
    const Tensor z = Tensor::Normal(Shape({kRows, d}), 0, 1, rng);
    const Tensor shifted = tmath::Slice(z, 0, kShift, kRows - kShift);
    for (float alpha : {1.7f, 2.5f}) {
      for (Backend backend : AvailableBackends()) {
        const Tensor batch = SolveRows(backend, z, alpha);
        const Tensor moved = SolveRows(backend, shifted, alpha);
        for (int64_t r = 0; r < kRows; ++r) {
          const Tensor row = tmath::Slice(z, 0, r, 1);
          const Tensor alone = SolveRows(backend, row, alpha);
          const size_t bytes = sizeof(float) * static_cast<size_t>(d);
          EXPECT_EQ(std::memcmp(alone.data(), batch.data() + r * d, bytes), 0)
              << BackendName(backend) << " d=" << d << " alpha=" << alpha
              << " row=" << r;
          if (r >= kShift) {
            EXPECT_EQ(std::memcmp(moved.data() + (r - kShift) * d,
                                  batch.data() + r * d, bytes),
                      0)
                << BackendName(backend) << " d=" << d << " row=" << r;
          }
        }
      }
    }
  }
}

TEST(EntmaxSolverTest, BackendsAgree) {
  if (!SimdAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  for (int64_t d : {10, 39, 43}) {
    const Tensor z = SpreadRows(64, d, 90 + d);
    for (float alpha : {1.3f, 1.7f, 2.0f}) {
      EXPECT_TRUE(SolveRows(Backend::kSimd, z, alpha)
                      .AllClose(SolveRows(Backend::kScalar, z, alpha), 1e-6f))
          << "d=" << d << " alpha=" << alpha;
    }
  }
}

class EntmaxBackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (SimdAvailable()) SetBackend(Backend::kSimd);
  }
};

TEST_F(EntmaxBackendTest, NonFiniteRowsBecomeNaNRowsOnEveryPath) {
  constexpr int64_t kRows = 11;
  constexpr int64_t kD = 10;
  Rng rng(100);
  Tensor z = Tensor::Normal(Shape({kRows, kD}), 0, 1, rng);
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<int64_t, float>> poisoned = {
      {1, kNaN}, {4, kInf}, {9, -kInf}};
  for (const auto& [row, value] : poisoned) z[row * kD + 3] = value;
  auto is_poisoned = [&](int64_t r) {
    return std::any_of(poisoned.begin(), poisoned.end(),
                       [r](const auto& entry) { return entry.first == r; });
  };
  for (Backend backend : AvailableBackends()) {
    SetBackend(backend);
    for (float alpha : {1.0f, 1.5f, 1.7f, 2.0f, 2.5f}) {
      const Tensor p = tmath::EntmaxLastDim(z, alpha);
      for (int64_t r = 0; r < kRows; ++r) {
        if (is_poisoned(r)) {
          for (int64_t j = 0; j < kD; ++j) {
            EXPECT_TRUE(std::isnan(p[r * kD + j]))
                << BackendName(backend) << " alpha=" << alpha << " row=" << r;
          }
          continue;
        }
        const Tensor alone =
            tmath::EntmaxLastDim(tmath::Slice(z, 0, r, 1), alpha);
        EXPECT_EQ(std::memcmp(alone.data(), p.data() + r * kD,
                              sizeof(float) * kD),
                  0)
            << BackendName(backend) << " alpha=" << alpha << " row=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace armnet
