#include "nn/embedding_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "nn/serialize.h"
#include "util/check.h"
#include "util/string_util.h"

namespace armnet::nn {

namespace {

// Fixed payload header, written immediately after the 12-byte envelope
// header (so the file layout is):
//
//   [0..12)   envelope: magic "ARMS", version u32, kind u32
//   [12..64)  store header: quant kind u32, rows i64, width i64,
//             scales_offset u64, scales_bytes u64,
//             data_offset u64, data_bytes u64  (offsets are absolute)
//   [64..)    scale region (kInt8 only), zero padding to data_offset,
//             then the row-data region
//   tail      envelope footer: crc32 u32, end magic "SMRA"
//
// data_offset is rounded up to kDataAlign so SIMD gathers read from a
// cache-line-aligned base and future dtypes can raise their alignment
// without a format bump.
constexpr uint64_t kStoreHeaderEnd = 64;
constexpr uint64_t kDataAlign = 64;

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// RAII read-only mapping of one store file. The ONLY mmap/munmap call site
// in src/ (lint rule `mmap-isolation`); QuantizedTable keeps instances
// alive through its owner handle.
class MappedFile {
 public:
  static StatusOr<std::shared_ptr<MappedFile>> Map(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::Error("cannot open: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::Error("cannot stat: " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return Status::Error(
          StrFormat("state file too small (0 bytes): %s", path.c_str()));
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    if (base == MAP_FAILED) {
      return Status::Error("cannot mmap: " + path);
    }
    return std::make_shared<MappedFile>(base, size);
  }

  MappedFile(void* base, size_t size) : base_(base), size_(size) {}
  ~MappedFile() { ::munmap(base_, size_); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return static_cast<const char*>(base_); }
  size_t size() const { return size_; }

 private:
  void* base_;
  size_t size_;
};

}  // namespace

Status SaveEmbeddingStore(const QuantizedTable& table,
                          const std::string& path) {
  const int64_t rows = table.rows();
  const uint64_t scales_bytes =
      table.scales() != nullptr
          ? static_cast<uint64_t>(rows) * sizeof(half_t)
          : 0;
  const uint64_t scales_offset = scales_bytes > 0 ? kStoreHeaderEnd : 0;
  const uint64_t data_offset =
      AlignUp(kStoreHeaderEnd + scales_bytes, kDataAlign);
  const uint64_t data_bytes = static_cast<uint64_t>(table.data_bytes());

  StateWriter writer(kStateKindEmbeddingStore);
  writer.WriteU32(static_cast<uint32_t>(table.kind()));
  writer.WriteI64(rows);
  writer.WriteI64(table.width());
  writer.WriteU64(scales_offset);
  writer.WriteU64(scales_bytes);
  writer.WriteU64(data_offset);
  writer.WriteU64(data_bytes);
  ARMNET_CHECK_EQ(writer.size(), kStoreHeaderEnd);
  if (scales_bytes > 0) writer.WriteRaw(table.scales(), scales_bytes);
  static constexpr char kZeros[kDataAlign] = {};
  while (writer.size() < data_offset) {
    writer.WriteRaw(kZeros,
                    std::min<uint64_t>(data_offset - writer.size(),
                                       sizeof(kZeros)));
  }
  if (data_bytes > 0) writer.WriteRaw(table.data(), data_bytes);
  return writer.Commit(path);
}

StatusOr<std::shared_ptr<QuantizedTable>> OpenMappedEmbeddingStore(
    const std::string& path) {
  StatusOr<std::shared_ptr<MappedFile>> mapped = MappedFile::Map(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<MappedFile> file = std::move(mapped).value();

  // Full envelope validation before a single payload byte is trusted. The
  // CRC pass reads the whole mapping once (sequential page-in); what stays
  // O(mmap) is the absence of any heap copy — and the pages it warms are
  // the shared ones every process reuses.
  Status valid = ValidateEnvelope(file->data(), file->size(),
                                  kStateKindEmbeddingStore, path);
  if (!valid.ok()) return valid;

  const uint64_t payload_end = file->size() - kEnvelopeFooterBytes;
  if (payload_end < kStoreHeaderEnd) {
    return Status::Error(
        StrFormat("embedding store header truncated in %s", path.c_str()));
  }
  const char* base = file->data();
  uint32_t kind_raw = 0;
  int64_t rows = 0;
  int64_t width = 0;
  uint64_t scales_offset = 0;
  uint64_t scales_bytes = 0;
  uint64_t data_offset = 0;
  uint64_t data_bytes = 0;
  size_t cursor = kEnvelopeHeaderBytes;
  const auto read_field = [&](void* out, size_t size) {
    std::memcpy(out, base + cursor, size);
    cursor += size;
  };
  read_field(&kind_raw, sizeof(kind_raw));
  read_field(&rows, sizeof(rows));
  read_field(&width, sizeof(width));
  read_field(&scales_offset, sizeof(scales_offset));
  read_field(&scales_bytes, sizeof(scales_bytes));
  read_field(&data_offset, sizeof(data_offset));
  read_field(&data_bytes, sizeof(data_bytes));

  if (kind_raw > static_cast<uint32_t>(QuantKind::kInt8)) {
    return Status::Error(StrFormat("corrupt embedding store in %s: "
                                   "unknown quant kind %u",
                                   path.c_str(), kind_raw));
  }
  const QuantKind kind = static_cast<QuantKind>(kind_raw);
  // Geometry sanity: non-negative, and the row count times the per-row
  // payload must reproduce the recorded byte counts exactly.
  if (rows < 0 || width < 0 || width > (int64_t{1} << 20) ||
      (width > 0 && rows > (int64_t{1} << 40) / (width + 1))) {
    return Status::Error(
        StrFormat("corrupt embedding store in %s: geometry [%lld, %lld]",
                  path.c_str(), static_cast<long long>(rows),
                  static_cast<long long>(width)));
  }
  const uint64_t expect_data =
      static_cast<uint64_t>(rows) *
      static_cast<uint64_t>(QuantizedTable::RowBytes(kind, width));
  const uint64_t expect_scales =
      kind == QuantKind::kInt8
          ? static_cast<uint64_t>(rows) * sizeof(half_t)
          : 0;
  const bool scales_region_ok =
      expect_scales == 0
          ? scales_bytes == 0
          : (scales_bytes == expect_scales &&
             scales_offset >= kStoreHeaderEnd &&
             scales_offset + scales_bytes > scales_offset &&
             scales_offset + scales_bytes <= payload_end);
  const bool data_region_ok =
      data_bytes == expect_data && data_offset >= kStoreHeaderEnd &&
      data_offset + data_bytes >= data_offset &&
      data_offset + data_bytes <= payload_end;
  if (!scales_region_ok || !data_region_ok) {
    return Status::Error(
        StrFormat("corrupt embedding store in %s: region offsets do not "
                  "match geometry",
                  path.c_str()));
  }

  const half_t* scales =
      expect_scales > 0
          ? reinterpret_cast<const half_t*>(base + scales_offset)
          : nullptr;
  const void* data = rows * width > 0 ? base + data_offset : nullptr;
  // The aliasing owner keeps the mapping alive for exactly as long as any
  // handle to the table (Embedding attachment, test) lives.
  std::shared_ptr<const void> owner(file, file->data());
  return QuantizedTable::FromRaw(kind, rows, width, data, scales,
                                 std::move(owner));
}

}  // namespace armnet::nn
