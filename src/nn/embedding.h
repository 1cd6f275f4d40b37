#ifndef ARMNET_NN_EMBEDDING_H_
#define ARMNET_NN_EMBEDDING_H_

#include <memory>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "nn/init.h"
#include "nn/module.h"
#include "tensor/quantized.h"

namespace armnet::nn {

// Embedding table: maps integer feature ids to dense rows.
//
// The tabular models index one global table over all (field, category)
// pairs — the paper's preprocessing module (Section 3.2.1). Lookups take a
// flat id vector; callers reshape the [n, width] result to [B, m, width].
//
// An exported QuantizedTable (DESIGN.md §14) can be attached as an
// inference-time storage override: no-grad forwards then dequantize-on-
// gather from the store (int8/fp16 rows, optionally mmap-backed) while
// every taped forward keeps using the float32 parameter, so training and
// the optimizer are untouched.
class Embedding : public Module {
 public:
  Embedding(int64_t num_rows, int64_t width, Rng& rng)
      : num_rows_(num_rows), width_(width) {
    table_ = RegisterParameter("table",
                               EmbeddingInit(Shape({num_rows, width}), rng));
  }

  // -> [ids.size(), width]
  Variable Forward(const std::vector<int64_t>& ids) const {
    if (store_ != nullptr && !GradMode::IsEnabled()) {
      return ag::QuantizedEmbeddingLookup(store_, ids);
    }
    return ag::EmbeddingLookup(table_, ids);
  }

  // Installs `store` as the no-grad lookup route. The store's geometry must
  // match this table. Not synchronized: the owner (PredictionService)
  // quiesces in-flight forwards before swapping.
  void AttachStore(std::shared_ptr<const QuantizedTable> store) {
    ARMNET_CHECK(store != nullptr);
    ARMNET_CHECK(store->rows() == num_rows_ && store->width() == width_)
        << "store geometry [" << store->rows() << ", " << store->width()
        << "] != embedding [" << num_rows_ << ", " << width_ << "]";
    store_ = std::move(store);
  }
  void DetachStore() { store_.reset(); }
  const std::shared_ptr<const QuantizedTable>& store() const {
    return store_;
  }

  int64_t num_rows() const { return num_rows_; }
  int64_t width() const { return width_; }
  const Variable& table() const { return table_; }

 private:
  int64_t num_rows_;
  int64_t width_;
  Variable table_;
  std::shared_ptr<const QuantizedTable> store_;
};

}  // namespace armnet::nn

#endif  // ARMNET_NN_EMBEDDING_H_
