#ifndef ARMNET_TENSOR_QUANTIZED_H_
#define ARMNET_TENSOR_QUANTIZED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/half.h"
#include "tensor/tensor.h"

// Read-only quantized embedding-table storage for the no-grad serving path
// (DESIGN.md §14). Training always runs on the float32 nn::Embedding table;
// a QuantizedTable is produced at export time (Quantize) or opened over a
// memory-mapped weight file (FromRaw with an owner keep-alive) and attached
// to an Embedding for inference.
//
// Storage formats (row-major, contiguous):
//   kFloat32  4*width bytes/row   verbatim floats (mmap sharing, no quant)
//   kFloat16  2*width bytes/row   IEEE binary16 per element
//   kInt8       width bytes/row   symmetric per-row scale, stored as fp16
//                                 (+2 bytes/row in the separate scale array)
//
// The int8 scale is half-rounded BEFORE the row is quantized against it, so
// dequantization reconstructs exactly q * HalfToFloat(scale_h) — the stored
// bytes fully determine the float output regardless of which process or
// backend gathers them.

namespace armnet {

enum class QuantKind : uint32_t {
  kFloat32 = 0,
  kFloat16 = 1,
  kInt8 = 2,
};

const char* QuantKindName(QuantKind kind);

class QuantizedTable {
 public:
  // Quantizes a rank-2 float32 table ([rows, width]) into owned storage.
  static std::shared_ptr<QuantizedTable> Quantize(const Tensor& table,
                                                  QuantKind kind);

  // Wraps externally owned storage (e.g. a mapped file). `data` must hold
  // rows * RowBytes(kind, width) bytes; `scales` must hold one half_t per
  // row for kInt8 (and must be null otherwise). `owner` is held alive for
  // the table's lifetime — the mmap keep-alive.
  static std::shared_ptr<QuantizedTable> FromRaw(
      QuantKind kind, int64_t rows, int64_t width, const void* data,
      const half_t* scales, std::shared_ptr<const void> owner);

  // Payload bytes of one row in the data region (excludes the int8 scale,
  // which lives in the separate scale array).
  static int64_t RowBytes(QuantKind kind, int64_t width);

  // Dequantizes the selected rows into `out` ([ids.size(), width], float32).
  // Every id must be in [0, rows()); aborts naming the first offender.
  void GatherRowsOut(const std::vector<int64_t>& ids, Tensor& out) const;
  Tensor GatherRows(const std::vector<int64_t>& ids) const;

  // Dequantizes one row straight from backing storage.
  void DequantizeRow(int64_t id, float* out) const;

  int64_t rows() const { return rows_; }
  int64_t width() const { return width_; }
  QuantKind kind() const { return kind_; }
  // Total storage cost per row including the per-row scale, the number the
  // Fig. 9 bench reports as bytes_per_row.
  int64_t bytes_per_row() const;
  int64_t data_bytes() const { return rows_ * RowBytes(kind_, width_); }
  const void* data() const { return data_; }
  // Per-row fp16 scales (kInt8 only; null for other kinds).
  const half_t* scales() const { return scales_; }

 private:
  QuantizedTable() = default;

  QuantKind kind_ = QuantKind::kFloat32;
  int64_t rows_ = 0;
  int64_t width_ = 0;
  const void* data_ = nullptr;
  const half_t* scales_ = nullptr;

  // Exactly one of: owned storage (Quantize) or an external keep-alive
  // (FromRaw — typically the mapped file).
  std::vector<int8_t> own_i8_;
  std::vector<uint16_t> own_u16_;
  std::vector<float> own_f32_;
  std::vector<half_t> own_scales_;
  std::shared_ptr<const void> owner_;
};

}  // namespace armnet

#endif  // ARMNET_TENSOR_QUANTIZED_H_
