#include "tensor/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace armnet {

const char* QuantKindName(QuantKind kind) {
  switch (kind) {
    case QuantKind::kFloat32:
      return "float32";
    case QuantKind::kFloat16:
      return "float16";
    case QuantKind::kInt8:
      return "int8";
  }
  return "unknown";
}

int64_t QuantizedTable::RowBytes(QuantKind kind, int64_t width) {
  switch (kind) {
    case QuantKind::kFloat32:
      return width * static_cast<int64_t>(sizeof(float));
    case QuantKind::kFloat16:
      return width * static_cast<int64_t>(sizeof(half_t));
    case QuantKind::kInt8:
      return width;
  }
  ARMNET_CHECK(false) << "bad QuantKind " << static_cast<uint32_t>(kind);
  return 0;
}

int64_t QuantizedTable::bytes_per_row() const {
  int64_t bytes = RowBytes(kind_, width_);
  if (kind_ == QuantKind::kInt8) {
    bytes += static_cast<int64_t>(sizeof(half_t));  // per-row scale
  }
  return bytes;
}

std::shared_ptr<QuantizedTable> QuantizedTable::Quantize(const Tensor& table,
                                                         QuantKind kind) {
  ARMNET_CHECK_EQ(table.rank(), 2) << "Quantize table must be rank 2";
  const int64_t rows = table.dim(0);
  const int64_t width = table.dim(1);
  auto out = std::shared_ptr<QuantizedTable>(new QuantizedTable());
  out->kind_ = kind;
  out->rows_ = rows;
  out->width_ = width;
  const float* src = table.numel() > 0 ? table.data() : nullptr;

  switch (kind) {
    case QuantKind::kFloat32: {
      out->own_f32_.resize(rows * width);
      if (rows * width > 0) {
        std::memcpy(out->own_f32_.data(), src,
                    rows * width * sizeof(float));
      }
      out->data_ = out->own_f32_.data();
      break;
    }
    case QuantKind::kFloat16: {
      out->own_u16_.resize(rows * width);
      for (int64_t i = 0; i < rows * width; ++i) {
        out->own_u16_[i] = FloatToHalf(src[i]);
      }
      out->data_ = out->own_u16_.data();
      break;
    }
    case QuantKind::kInt8: {
      out->own_i8_.resize(rows * width);
      out->own_scales_.resize(rows);
      for (int64_t r = 0; r < rows; ++r) {
        const float* row = src + r * width;
        float amax = 0.0f;
        for (int64_t j = 0; j < width; ++j) {
          amax = std::max(amax, std::fabs(row[j]));
        }
        // Round the scale to fp16 FIRST, then quantize against the rounded
        // value: dequantization then reproduces exactly what was encoded.
        const half_t scale_h = FloatToHalf(amax / 127.0f);
        const float scale = HalfToFloat(scale_h);
        out->own_scales_[r] = scale_h;
        int8_t* qrow = out->own_i8_.data() + r * width;
        if (scale == 0.0f || !std::isfinite(scale)) {
          std::fill(qrow, qrow + width, static_cast<int8_t>(0));
          continue;
        }
        for (int64_t j = 0; j < width; ++j) {
          const float q = std::nearbyint(row[j] / scale);
          qrow[j] = static_cast<int8_t>(
              std::clamp(q, -127.0f, 127.0f));
        }
      }
      out->data_ = out->own_i8_.data();
      out->scales_ = out->own_scales_.data();
      break;
    }
  }
  ARMNET_CHECK(out->data_ != nullptr || rows * width == 0);
  return out;
}

std::shared_ptr<QuantizedTable> QuantizedTable::FromRaw(
    QuantKind kind, int64_t rows, int64_t width, const void* data,
    const half_t* scales, std::shared_ptr<const void> owner) {
  ARMNET_CHECK(rows >= 0 && width >= 0);
  ARMNET_CHECK(rows * width == 0 || data != nullptr);
  if (kind == QuantKind::kInt8) {
    ARMNET_CHECK(rows == 0 || scales != nullptr)
        << "int8 table needs per-row scales";
  } else {
    ARMNET_CHECK(scales == nullptr)
        << QuantKindName(kind) << " table carries no scales";
  }
  auto out = std::shared_ptr<QuantizedTable>(new QuantizedTable());
  out->kind_ = kind;
  out->rows_ = rows;
  out->width_ = width;
  out->data_ = data;
  out->scales_ = scales;
  out->owner_ = std::move(owner);
  return out;
}

void QuantizedTable::DequantizeRow(int64_t id, float* out) const {
  ARMNET_DCHECK(id >= 0 && id < rows_);
  switch (kind_) {
    case QuantKind::kFloat32:
      std::memcpy(out, static_cast<const float*>(data_) + id * width_,
                  width_ * sizeof(float));
      break;
    case QuantKind::kFloat16:
      kernels::DequantRowF16(static_cast<const uint16_t*>(data_) + id * width_,
                             out, width_);
      break;
    case QuantKind::kInt8:
      kernels::DequantRowI8(static_cast<const int8_t*>(data_) + id * width_,
                            HalfToFloat(scales_[id]), out, width_);
      break;
  }
}

void QuantizedTable::GatherRowsOut(const std::vector<int64_t>& ids,
                                   Tensor& out) const {
  ARMNET_DCHECK(out.dim(0) == static_cast<int64_t>(ids.size()) &&
                out.dim(1) == width_);
  tmath::CheckRowIds(ids, rows_, "QuantizedGatherRows");
  if (ids.empty() || width_ == 0) return;
  float* dst = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    DequantizeRow(ids[i], dst + static_cast<int64_t>(i) * width_);
  }
}

Tensor QuantizedTable::GatherRows(const std::vector<int64_t>& ids) const {
  Tensor out{Shape({static_cast<int64_t>(ids.size()), width_})};
  GatherRowsOut(ids, out);
  return out;
}

}  // namespace armnet
