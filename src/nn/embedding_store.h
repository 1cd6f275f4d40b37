#ifndef ARMNET_NN_EMBEDDING_STORE_H_
#define ARMNET_NN_EMBEDDING_STORE_H_

#include <memory>
#include <string>

#include "tensor/quantized.h"
#include "util/status.h"

// Durable quantized-embedding weight files (DESIGN.md §14).
//
// An embedding store is a serialize-v2 envelope (kind
// kStateKindEmbeddingStore) whose payload is laid out for zero-copy
// consumption: a fixed header records the quantization kind, geometry, and
// ABSOLUTE file offsets of the scale and row-data regions, and the row data
// is padded to a 64-byte-aligned offset. Opening maps the file read-only
// (PROT_READ, MAP_SHARED) and wraps a QuantizedTable directly over the
// mapped bytes, so
//   - cold start is O(mmap), not O(read): no heap copy of the table, pages
//     fault in on first gather;
//   - N serving processes opening the same file share ONE physical copy of
//     the weights through the page cache.
//
// The mapping's lifetime is owned by the returned QuantizedTable (a
// shared_ptr keep-alive): the file is unmapped when the last table handle
// drops. The envelope is fully validated (magic/version/kind/end-marker/CRC)
// before a table is returned; a corrupt or truncated file yields a Status
// and maps nothing into the caller's model.
//
// This translation unit (embedding_store.cc) is the only place in src/ that
// may call mmap/munmap — enforced by tools/lint.py (rule `mmap-isolation`).

namespace armnet::nn {

// Writes `table` to `path` atomically (CRC-framed temp-file + rename, like
// every other durable artifact).
Status SaveEmbeddingStore(const QuantizedTable& table,
                          const std::string& path);

// Maps `path` read-only and returns a QuantizedTable backed by the mapping.
// The table (and anything co-owning it) keeps the mapping alive.
StatusOr<std::shared_ptr<QuantizedTable>> OpenMappedEmbeddingStore(
    const std::string& path);

}  // namespace armnet::nn

#endif  // ARMNET_NN_EMBEDDING_STORE_H_
