// Tests for the quantized embedding-storage subsystem (DESIGN.md §14):
// fp16 conversion, int8/fp16 dequantize-on-gather bit-exactness against the
// stored bytes (scalar and SIMD), the quantize -> serialize -> mmap -> gather
// round trip, corruption/truncation rejection at every boundary, and the
// Embedding no-grad routing contract.

#include "tensor/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "nn/embedding.h"
#include "nn/embedding_store.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/backend.h"
#include "tensor/half.h"
#include "tensor/kernels.h"

namespace armnet {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Tensor RandomTable(int64_t rows, int64_t width, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Normal(Shape({rows, width}), 0, 0.5f, rng);
}

// --- fp16 conversion ---------------------------------------------------------

TEST(HalfTest, ExactValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.25f, 1024.0f, 65504.0f,
                  -65504.0f, 0.000030517578125f /* smallest normal */}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(HalfTest, SpecialsAndRounding) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(HalfToFloat(FloatToHalf(inf)), inf);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
  // Overflow saturates to infinity; tiny values underflow to signed zero.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e9f)), inf);
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e-12f)), 0.0f);
  // Round-trip error of a normal value is bounded by half a ulp (2^-11).
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.UniformF(-100.0f, 100.0f);
    const float back = HalfToFloat(FloatToHalf(v));
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-7f)
        << v;
  }
}

// --- Dequantize-on-gather bit-exactness --------------------------------------

// The float a gather produces must be fully determined by the stored bytes:
// q * HalfToFloat(scale_h) for int8, HalfToFloat(h) for fp16 — compared
// against a plain reference loop over the table's own storage.
TEST(QuantizedTableTest, Int8GatherBitExactAgainstStoredBytes) {
  const int64_t rows = 64;
  const int64_t width = 10;
  const Tensor table = RandomTable(rows, width, 11);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(table, QuantKind::kInt8);
  ASSERT_EQ(store->bytes_per_row(), width + 2);

  std::vector<int64_t> all_ids;
  for (int64_t r = 0; r < rows; ++r) all_ids.push_back(r);
  const Tensor out = store->GatherRows(all_ids);

  const auto* qdata = static_cast<const int8_t*>(store->data());
  const half_t* scales = store->scales();
  for (int64_t r = 0; r < rows; ++r) {
    const float scale = HalfToFloat(scales[r]);
    for (int64_t j = 0; j < width; ++j) {
      const float expect = static_cast<float>(qdata[r * width + j]) * scale;
      EXPECT_EQ(out[r * width + j], expect) << "row " << r << " col " << j;
    }
  }
}

TEST(QuantizedTableTest, Int8QuantizationErrorBounded) {
  const int64_t rows = 32;
  const int64_t width = 16;
  const Tensor table = RandomTable(rows, width, 12);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(table, QuantKind::kInt8);
  std::vector<int64_t> all_ids;
  for (int64_t r = 0; r < rows; ++r) all_ids.push_back(r);
  const Tensor out = store->GatherRows(all_ids);
  for (int64_t r = 0; r < rows; ++r) {
    float amax = 0;
    for (int64_t j = 0; j < width; ++j) {
      amax = std::max(amax, std::fabs(table[r * width + j]));
    }
    // Symmetric per-row quantization: error <= half a quantization step
    // (plus the fp16 rounding of the scale itself).
    const float step = amax / 127.0f;
    for (int64_t j = 0; j < width; ++j) {
      EXPECT_LE(std::fabs(out[r * width + j] - table[r * width + j]),
                0.51f * step + amax / 1024.0f);
    }
  }
}

TEST(QuantizedTableTest, Fp16GatherMatchesStoredHalfwords) {
  const int64_t rows = 16;
  const int64_t width = 7;
  const Tensor table = RandomTable(rows, width, 13);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(table, QuantKind::kFloat16);
  ASSERT_EQ(store->bytes_per_row(), 2 * width);
  ASSERT_EQ(store->scales(), nullptr);
  std::vector<int64_t> all_ids;
  for (int64_t r = 0; r < rows; ++r) all_ids.push_back(r);
  const Tensor out = store->GatherRows(all_ids);
  const auto* halves = static_cast<const uint16_t*>(store->data());
  for (int64_t i = 0; i < rows * width; ++i) {
    EXPECT_EQ(out[i], HalfToFloat(halves[i])) << i;
  }
}

TEST(QuantizedTableTest, Float32StoreIsVerbatim) {
  const int64_t rows = 8;
  const int64_t width = 5;
  const Tensor table = RandomTable(rows, width, 14);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(table, QuantKind::kFloat32);
  ASSERT_EQ(store->bytes_per_row(), 4 * width);
  std::vector<int64_t> all_ids;
  for (int64_t r = 0; r < rows; ++r) all_ids.push_back(r);
  const Tensor out = store->GatherRows(all_ids);
  EXPECT_EQ(std::memcmp(out.data(), table.data(),
                        static_cast<size_t>(rows * width) * sizeof(float)),
            0);
}

// Scalar and SIMD dequant kernels must agree bit-for-bit — the dispatch
// choice can never change a served logit.
TEST(QuantizedTableTest, ScalarSimdDequantParity) {
  const int64_t width = 37;  // odd length exercises the SIMD tails
  Rng rng(15);
  std::vector<int8_t> qrow(static_cast<size_t>(width));
  std::vector<uint16_t> hrow(static_cast<size_t>(width));
  for (int64_t j = 0; j < width; ++j) {
    qrow[static_cast<size_t>(j)] =
        static_cast<int8_t>(rng.UniformInt(255) - 127);
    hrow[static_cast<size_t>(j)] =
        FloatToHalf(rng.UniformF(-4.0f, 4.0f));
  }
  std::vector<float> scalar_out(static_cast<size_t>(width));
  std::vector<float> simd_out(static_cast<size_t>(width));

  kernels::scalar::DequantRowI8(qrow.data(), 0.0123f, scalar_out.data(),
                                width);
  if (SimdAvailable()) {
    kernels::simd::DequantRowI8(qrow.data(), 0.0123f, simd_out.data(), width);
    EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                          scalar_out.size() * sizeof(float)),
              0);
  }

  kernels::scalar::DequantRowF16(hrow.data(), scalar_out.data(), width);
  if (F16cAvailable()) {
    kernels::simd::DequantRowF16(hrow.data(), simd_out.data(), width);
    EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                          scalar_out.size() * sizeof(float)),
              0);
  }
}

// --- Serialize -> mmap round trip --------------------------------------------

class StoreRoundTripTest : public ::testing::TestWithParam<QuantKind> {};

TEST_P(StoreRoundTripTest, SaveOpenGatherBitExact) {
  const QuantKind kind = GetParam();
  const int64_t rows = 50;
  const int64_t width = 9;
  const Tensor table = RandomTable(rows, width, 21);
  std::shared_ptr<QuantizedTable> exported =
      QuantizedTable::Quantize(table, kind);

  const std::string path = ::testing::TempDir() + "/store_rt_" +
                           QuantKindName(kind) + ".arms";
  ASSERT_TRUE(nn::SaveEmbeddingStore(*exported, path).ok());

  StatusOr<std::shared_ptr<QuantizedTable>> opened =
      nn::OpenMappedEmbeddingStore(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const QuantizedTable& mapped = *opened.value();
  EXPECT_EQ(mapped.kind(), kind);
  EXPECT_EQ(mapped.rows(), rows);
  EXPECT_EQ(mapped.width(), width);
  EXPECT_EQ(mapped.bytes_per_row(), exported->bytes_per_row());

  std::vector<int64_t> all_ids;
  for (int64_t r = 0; r < rows; ++r) all_ids.push_back(r);
  const Tensor from_memory = exported->GatherRows(all_ids);
  const Tensor from_mmap = mapped.GatherRows(all_ids);
  EXPECT_EQ(std::memcmp(from_memory.data(), from_mmap.data(),
                        static_cast<size_t>(rows * width) * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StoreRoundTripTest,
                         ::testing::Values(QuantKind::kFloat32,
                                           QuantKind::kFloat16,
                                           QuantKind::kInt8),
                         [](const auto& info) {
                           return std::string(QuantKindName(info.param));
                         });

// The mapping must outlive the file handle scope: gathers stay valid as
// long as any shared owner (here the table itself) is alive, even after
// the on-disk file is removed.
TEST(StoreRoundTripTest, MappingSurvivesFileRemoval) {
  const Tensor table = RandomTable(20, 6, 22);
  std::shared_ptr<QuantizedTable> exported =
      QuantizedTable::Quantize(table, QuantKind::kInt8);
  const std::string path = ::testing::TempDir() + "/store_unlink.arms";
  ASSERT_TRUE(nn::SaveEmbeddingStore(*exported, path).ok());
  StatusOr<std::shared_ptr<QuantizedTable>> opened =
      nn::OpenMappedEmbeddingStore(path);
  ASSERT_TRUE(opened.ok());
  std::filesystem::remove(path);
  const Tensor a = exported->GatherRows({0, 5, 19});
  const Tensor b = opened.value()->GatherRows({0, 5, 19});
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

// --- Corruption rejection ----------------------------------------------------

TEST(StoreCorruptionTest, TruncationGridRejected) {
  const Tensor table = RandomTable(30, 8, 23);
  std::shared_ptr<QuantizedTable> exported =
      QuantizedTable::Quantize(table, QuantKind::kInt8);
  const std::string good = ::testing::TempDir() + "/store_trunc.arms";
  ASSERT_TRUE(nn::SaveEmbeddingStore(*exported, good).ok());
  const std::vector<char> bytes = ReadAll(good);
  ASSERT_GT(bytes.size(), 64u);

  const std::string path = ::testing::TempDir() + "/store_trunc_cut.arms";
  // Every envelope/header boundary plus steps through the payload.
  std::vector<size_t> grid = {0, 1, 4, 11, 12, 40, 63, 64,
                              bytes.size() / 2, bytes.size() - 9,
                              bytes.size() - 1};
  for (size_t keep : grid) {
    WriteAll(path, std::vector<char>(
                       bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
    EXPECT_FALSE(nn::OpenMappedEmbeddingStore(path).ok())
        << "accepted a store truncated to " << keep << " bytes";
  }

  // Any single flipped bit must fail the CRC.
  for (size_t pos : {size_t{13}, size_t{70}, bytes.size() - 5}) {
    std::vector<char> flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    WriteAll(path, flipped);
    EXPECT_FALSE(nn::OpenMappedEmbeddingStore(path).ok())
        << "accepted a store with a flipped bit at " << pos;
  }

  // The original still opens after all that (the grid wrote elsewhere).
  EXPECT_TRUE(nn::OpenMappedEmbeddingStore(good).ok());
}

TEST(StoreCorruptionTest, WrongKindRejected) {
  // A valid envelope of another kind (a model state file) must be refused.
  Rng rng(5);
  nn::Linear layer(4, 3, rng);
  const std::string path = ::testing::TempDir() + "/store_wrong_kind.arms";
  ASSERT_TRUE(nn::SaveState(layer, path).ok());
  StatusOr<std::shared_ptr<QuantizedTable>> opened =
      nn::OpenMappedEmbeddingStore(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("kind"), std::string::npos);
}

// --- Embedding routing -------------------------------------------------------

TEST(EmbeddingStoreTest, NoGradForwardUsesStoreTapedForwardUsesTable) {
  Rng rng(41);
  nn::Embedding embedding(/*num_rows=*/24, /*width=*/6, rng);
  const std::vector<int64_t> ids = {3, 3, 17, 0, 23};
  const Tensor float_rows = embedding.Forward(ids).value().Clone();

  // A store quantized from DIFFERENT values, so route selection is visible.
  Tensor other = RandomTable(24, 6, 42);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(other, QuantKind::kFloat32);
  embedding.AttachStore(store);

  {
    NoGradGuard no_grad;
    const Tensor served = embedding.Forward(ids).value();
    const Tensor expect = store->GatherRows(ids);
    EXPECT_EQ(std::memcmp(served.data(), expect.data(),
                          static_cast<size_t>(served.numel()) * sizeof(float)),
              0);
  }

  // Grad mode (training) keeps reading the float32 parameter.
  const Tensor taped = embedding.Forward(ids).value();
  EXPECT_EQ(std::memcmp(taped.data(), float_rows.data(),
                        static_cast<size_t>(taped.numel()) * sizeof(float)),
            0);

  embedding.DetachStore();
  NoGradGuard no_grad;
  const Tensor detached = embedding.Forward(ids).value();
  EXPECT_EQ(std::memcmp(detached.data(), float_rows.data(),
                        static_cast<size_t>(detached.numel()) * sizeof(float)),
            0);
}

}  // namespace
}  // namespace armnet
