// Unit tests for the tensor substrate: shapes, broadcasting, matmul,
// reductions, structural ops, and kernel-backend agreement.

#include "tensor/tensor_ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/kernels.h"

namespace armnet {
namespace {

namespace tm = tmath;

TEST(ShapeTest, Basics) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.Strides(), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(ShapeTest, ScalarShape) {
  Shape s({});
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, Broadcast) {
  EXPECT_EQ(Shape::Broadcast(Shape({3, 1}), Shape({1, 4})), Shape({3, 4}));
  EXPECT_EQ(Shape::Broadcast(Shape({5, 3, 1}), Shape({4})),
            Shape({5, 3, 4}));
  EXPECT_EQ(Shape::Broadcast(Shape({}), Shape({2, 2})), Shape({2, 2}));
  EXPECT_TRUE(Shape::BroadcastableTo(Shape({3, 1}), Shape({2, 3, 4})));
  EXPECT_FALSE(Shape::BroadcastableTo(Shape({3, 2}), Shape({3, 4})));
}

TEST(TensorTest, FactoriesAndAccess) {
  Tensor z = Tensor::Zeros(Shape({2, 2}));
  EXPECT_EQ(z.numel(), 4);
  EXPECT_FLOAT_EQ(z[0], 0.0f);
  const Tensor fresh{Shape({3, 5})};
  for (int64_t i = 0; i < fresh.numel(); ++i) EXPECT_EQ(fresh[i], 0.0f);

  Tensor f = Tensor::Full(Shape({3}), 2.5f);
  EXPECT_FLOAT_EQ(f[2], 2.5f);

  Tensor v = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(v.at({1, 2}), 6.0f);
  EXPECT_FLOAT_EQ(v.at({0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(v.at({1, -1}), 6.0f);

  EXPECT_FLOAT_EQ(Tensor::Scalar(7.0f).item(), 7.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = a.Reshape(Shape({3, 2}));
  b[0] = 42.0f;
  EXPECT_FLOAT_EQ(a[0], 42.0f);

  Tensor c = a.Reshape(Shape({-1, 2}));
  EXPECT_EQ(c.shape(), Shape({3, 2}));
}

TEST(TensorTest, CloneIsIndependent) {
  Tensor a = Tensor::Ones(Shape({4}));
  Tensor b = a.Clone();
  b[0] = 9.0f;
  EXPECT_FLOAT_EQ(a[0], 1.0f);

  // Bit-exact on arbitrary data, in fresh storage.
  Rng rng(6);
  const Tensor src = Tensor::Normal(Shape({3, 11}), 0, 1, rng);
  const Tensor copy = src.Clone();
  EXPECT_EQ(copy.shape(), src.shape());
  EXPECT_NE(copy.data(), src.data());
  for (int64_t i = 0; i < src.numel(); ++i) EXPECT_EQ(copy[i], src[i]);
}

TEST(TensorTest, RandomFactoriesDeterministic) {
  Rng rng1(5), rng2(5);
  Tensor a = Tensor::Normal(Shape({8}), 0, 1, rng1);
  Tensor b = Tensor::Normal(Shape({8}), 0, 1, rng2);
  EXPECT_TRUE(a.AllClose(b, 0.0f));
}

TEST(ElementwiseTest, SameShape) {
  Tensor a = Tensor::FromVector(Shape({4}), {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape({4}), {10, 20, 30, 40});
  EXPECT_TRUE(tm::Add(a, b).AllClose(
      Tensor::FromVector(Shape({4}), {11, 22, 33, 44})));
  EXPECT_TRUE(tm::Sub(b, a).AllClose(
      Tensor::FromVector(Shape({4}), {9, 18, 27, 36})));
  EXPECT_TRUE(tm::Mul(a, a).AllClose(
      Tensor::FromVector(Shape({4}), {1, 4, 9, 16})));
  EXPECT_TRUE(tm::Div(b, a).AllClose(
      Tensor::FromVector(Shape({4}), {10, 10, 10, 10})));
}

TEST(ElementwiseTest, Broadcasting) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector(Shape({3}), {10, 20, 30});
  Tensor col = Tensor::FromVector(Shape({2, 1}), {100, 200});

  EXPECT_TRUE(tm::Add(a, row).AllClose(
      Tensor::FromVector(Shape({2, 3}), {11, 22, 33, 14, 25, 36})));
  EXPECT_TRUE(tm::Add(a, col).AllClose(
      Tensor::FromVector(Shape({2, 3}), {101, 102, 103, 204, 205, 206})));
  // Broadcasting two non-trivial shapes: [2,1] x [3] -> [2,3].
  EXPECT_TRUE(tm::Mul(col, row).AllClose(Tensor::FromVector(
      Shape({2, 3}), {1000, 2000, 3000, 2000, 4000, 6000})));
}

TEST(ElementwiseTest, UnaryOps) {
  Tensor a = Tensor::FromVector(Shape({3}), {-1.0f, 0.0f, 2.0f});
  EXPECT_TRUE(tm::Relu(a).AllClose(
      Tensor::FromVector(Shape({3}), {0, 0, 2})));
  EXPECT_TRUE(tm::Abs(a).AllClose(
      Tensor::FromVector(Shape({3}), {1, 0, 2})));
  EXPECT_TRUE(tm::Neg(a).AllClose(
      Tensor::FromVector(Shape({3}), {1, 0, -2})));
  EXPECT_TRUE(tm::ClampMin(a, 0.5f).AllClose(
      Tensor::FromVector(Shape({3}), {0.5f, 0.5f, 2.0f})));

  Tensor e = tm::Exp(Tensor::FromVector(Shape({2}), {0.0f, 1.0f}));
  EXPECT_NEAR(e[0], 1.0f, 1e-6);
  EXPECT_NEAR(e[1], std::exp(1.0f), 1e-5);

  Tensor s = tm::Sigmoid(Tensor::FromVector(Shape({3}), {-100, 0, 100}));
  EXPECT_NEAR(s[0], 0.0f, 1e-6);
  EXPECT_NEAR(s[1], 0.5f, 1e-6);
  EXPECT_NEAR(s[2], 1.0f, 1e-6);
}

TEST(MatMulTest, Plain2D) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  Tensor c = tm::MatMul(a, b);
  EXPECT_TRUE(c.AllClose(
      Tensor::FromVector(Shape({2, 2}), {58, 64, 139, 154})));
}

TEST(MatMulTest, BatchedAndBroadcast) {
  Rng rng(3);
  Tensor a = Tensor::Normal(Shape({4, 2, 3}), 0, 1, rng);
  Tensor b = Tensor::Normal(Shape({3, 5}), 0, 1, rng);
  Tensor c = tm::MatMul(a, b);  // [4, 2, 5]
  EXPECT_EQ(c.shape(), Shape({4, 2, 5}));
  // Check one batch against the 2D path.
  Tensor a0 = tm::Slice(a, 0, 1, 1).Reshape(Shape({2, 3}));
  Tensor c0 = tm::MatMul(a0, b);
  Tensor c0_ref = tm::Slice(c, 0, 1, 1).Reshape(Shape({2, 5}));
  EXPECT_TRUE(c0.AllClose(c0_ref, 1e-5f));
}

TEST(MatMulTest, BroadcastBothBatchDims) {
  Rng rng(4);
  // [B, 1, m, k] x [K, k, n] -> [B, K, m, n], the ARM-Module shape.
  Tensor a = Tensor::Normal(Shape({2, 1, 3, 4}), 0, 1, rng);
  Tensor b = Tensor::Normal(Shape({5, 4, 6}), 0, 1, rng);
  Tensor c = tm::MatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 5, 3, 6}));
  // Element check: c[1, 2, 0, 0] = sum_k a[1, 0, 0, k] * b[2, k, 0].
  double expected = 0;
  for (int k = 0; k < 4; ++k) {
    expected += a.at({1, 0, 0, k}) * b.at({2, k, 0});
  }
  EXPECT_NEAR(c.at({1, 2, 0, 0}), expected, 1e-5);
}

TEST(TransposeTest, LastTwoDims) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor t = tm::Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(t.at({2, 1}), 6.0f);
  EXPECT_FLOAT_EQ(t.at({0, 1}), 4.0f);

  Rng rng(7);
  Tensor b = Tensor::Normal(Shape({2, 3, 4}), 0, 1, rng);
  Tensor tt = tm::Transpose(tm::Transpose(b, -2, -1), -2, -1);
  EXPECT_TRUE(tt.AllClose(b));
}

TEST(ReductionTest, SumMeanAxes) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(tm::SumAll(a).item(), 21.0f);
  EXPECT_TRUE(tm::Sum(a, 0, false).AllClose(
      Tensor::FromVector(Shape({3}), {5, 7, 9})));
  EXPECT_TRUE(tm::Sum(a, 1, false).AllClose(
      Tensor::FromVector(Shape({2}), {6, 15})));
  EXPECT_TRUE(tm::Sum(a, 1, true).AllClose(
      Tensor::FromVector(Shape({2, 1}), {6, 15})));
  EXPECT_TRUE(tm::Mean(a, 0, false).AllClose(
      Tensor::FromVector(Shape({3}), {2.5f, 3.5f, 4.5f})));
  EXPECT_TRUE(tm::Sum(a, -1, false).AllClose(tm::Sum(a, 1, false)));
}

TEST(ReductionTest, SumToInvertsBroadcast) {
  Tensor g = Tensor::Ones(Shape({2, 3, 4}));
  EXPECT_TRUE(tm::SumTo(g, Shape({3, 4}))
                  .AllClose(Tensor::Full(Shape({3, 4}), 2.0f)));
  EXPECT_TRUE(tm::SumTo(g, Shape({2, 1, 4}))
                  .AllClose(Tensor::Full(Shape({2, 1, 4}), 3.0f)));
  EXPECT_TRUE(tm::SumTo(g, Shape({})).AllClose(Tensor::Scalar(24.0f)));
}

TEST(ReductionTest, BroadcastToMatchesManual) {
  Tensor a = Tensor::FromVector(Shape({2, 1}), {1, 2});
  Tensor b = tm::BroadcastTo(a, Shape({2, 3}));
  EXPECT_TRUE(b.AllClose(
      Tensor::FromVector(Shape({2, 3}), {1, 1, 1, 2, 2, 2})));
}

TEST(StructuralTest, ConcatAndSlice) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape({2, 1}), {5, 6});
  Tensor c = tm::Concat({a, b}, 1);
  EXPECT_TRUE(c.AllClose(
      Tensor::FromVector(Shape({2, 3}), {1, 2, 5, 3, 4, 6})));
  EXPECT_TRUE(tm::Slice(c, 1, 2, 1).AllClose(b));
  EXPECT_TRUE(tm::Slice(c, 1, 0, 2).AllClose(a));

  Tensor d = tm::Concat({a, a}, 0);
  EXPECT_EQ(d.shape(), Shape({4, 2}));
  EXPECT_TRUE(tm::Slice(d, 0, 2, 2).AllClose(a));
}

TEST(StructuralTest, SliceBackwardPastesAtOffset) {
  Tensor g = Tensor::Ones(Shape({2, 2}));
  Tensor full = tm::SliceBackward(g, Shape({2, 5}), 1, 2);
  EXPECT_EQ(full.shape(), Shape({2, 5}));
  EXPECT_FLOAT_EQ(full.at({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(full.at({0, 2}), 1.0f);
  EXPECT_FLOAT_EQ(full.at({1, 3}), 1.0f);
  EXPECT_FLOAT_EQ(full.at({1, 4}), 0.0f);
}

TEST(IndexedTest, GatherScatterRows) {
  Tensor table = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor gathered = tm::GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(gathered.AllClose(
      Tensor::FromVector(Shape({3, 2}), {5, 6, 1, 2, 5, 6})));

  Tensor dest = Tensor::Zeros(Shape({3, 2}));
  tm::ScatterAddRows(dest, {2, 0, 2}, gathered);
  EXPECT_TRUE(dest.AllClose(
      Tensor::FromVector(Shape({3, 2}), {1, 2, 0, 0, 10, 12})));
}

TEST(IndexedTest, IndexSelectAndBackward) {
  Tensor a = Tensor::FromVector(Shape({2, 3, 2}),
                                {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor sel = tm::IndexSelect(a, 1, {2, 0});
  EXPECT_EQ(sel.shape(), Shape({2, 2, 2}));
  EXPECT_FLOAT_EQ(sel.at({0, 0, 0}), 5.0f);
  EXPECT_FLOAT_EQ(sel.at({0, 1, 1}), 2.0f);
  EXPECT_FLOAT_EQ(sel.at({1, 0, 0}), 11.0f);

  Tensor back = tm::IndexSelectBackward(Tensor::Ones(sel.shape()),
                                        a.shape(), 1, {2, 0});
  EXPECT_FLOAT_EQ(back.at({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(back.at({0, 1, 0}), 0.0f);
  EXPECT_FLOAT_EQ(back.at({0, 2, 1}), 1.0f);

  // Duplicate indices accumulate.
  Tensor dup = tm::IndexSelectBackward(
      Tensor::Ones(Shape({1, 2, 1})), Shape({1, 1, 1}), 1, {0, 0});
  EXPECT_FLOAT_EQ(dup[0], 2.0f);
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Rng rng(11);
  Tensor z = Tensor::Normal(Shape({4, 6}), 0, 3, rng);
  Tensor p = tm::SoftmaxLastDim(z);
  for (int r = 0; r < 4; ++r) {
    float total = 0;
    for (int j = 0; j < 6; ++j) total += p.at({r, j});
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
  // Monotone: larger logit, larger probability.
  EXPECT_GT(tm::SoftmaxLastDim(
                Tensor::FromVector(Shape({2}), {1.0f, 2.0f}))[1],
            0.5f);
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor z = Tensor::FromVector(Shape({3}), {1000.0f, 1000.0f, 999.0f});
  Tensor p = tm::SoftmaxLastDim(z);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0], p[1], 1e-6);
  EXPECT_LT(p[2], p[0]);
}

// --- Backend agreement: scalar and SIMD kernels must match -----------------

class BackendAgreementTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (SimdAvailable()) SetBackend(Backend::kSimd);
  }
};

TEST_F(BackendAgreementTest, AllKernelsAgree) {
  if (!SimdAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(13);
  Tensor a = Tensor::Normal(Shape({37}), 0, 2, rng);   // odd size: tail path
  Tensor b = Tensor::Normal(Shape({37}), 1, 2, rng);
  Tensor ma = Tensor::Normal(Shape({9, 17}), 0, 1, rng);
  Tensor mb = Tensor::Normal(Shape({17, 13}), 0, 1, rng);

  SetBackend(Backend::kScalar);
  Tensor add_s = tmath::Add(a, b);
  Tensor mul_s = tmath::Mul(a, b);
  Tensor exp_s = tmath::Exp(a);
  Tensor mm_s = tmath::MatMul(ma, mb);
  float dot_s = kernels::VecDot(a.data(), b.data(), a.numel());
  float sum_s = kernels::VecSum(a.data(), a.numel());

  SetBackend(Backend::kSimd);
  EXPECT_TRUE(tmath::Add(a, b).AllClose(add_s, 1e-6f));
  EXPECT_TRUE(tmath::Mul(a, b).AllClose(mul_s, 1e-6f));
  EXPECT_TRUE(tmath::Exp(a).AllClose(exp_s, 1e-4f));
  EXPECT_TRUE(tmath::MatMul(ma, mb).AllClose(mm_s, 1e-4f));
  EXPECT_NEAR(kernels::VecDot(a.data(), b.data(), a.numel()), dot_s, 1e-3f);
  EXPECT_NEAR(kernels::VecSum(a.data(), a.numel()), sum_s, 1e-3f);
}

TEST(BackendTest, NamesAndSwitch) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kSimd), "simd");
  const Backend original = GetBackend();
  SetBackend(Backend::kScalar);
  EXPECT_EQ(GetBackend(), Backend::kScalar);
  SetBackend(original);
}

}  // namespace
}  // namespace armnet
