#ifndef ARMNET_CORE_TABULAR_H_
#define ARMNET_CORE_TABULAR_H_

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "data/dataset.h"
#include "nn/embedding.h"
#include "nn/module.h"
#include "util/rng.h"

// Shared abstractions for structured-data predictors: the TabularModel
// interface every model in the zoo (and ARM-Net itself) implements, and the
// preprocessing-layer building blocks of Section 3.2.1.

namespace armnet::models {

// Base class for every tabular predictor (the paper's Table 2 rows).
// Forward maps a mini-batch to raw logits [batch_size]; training applies
// BceWithLogits on top, inference applies a sigmoid. `rng` supplies dropout
// randomness and is unused by deterministic models.
class TabularModel : public nn::Module {
 public:
  virtual Variable Forward(const data::Batch& batch, Rng& rng) = 0;
  virtual std::string name() const = 0;
};

// First-order term shared by LR, FM and the wide parts of ensembles: one
// learnable weight per global feature id plus a bias;
// Forward -> [B] = bias + sum_f w[id_f] * value_f.
class FeaturesLinear : public nn::Module {
 public:
  FeaturesLinear(int64_t num_features, Rng& rng)
      : weights_(num_features, 1, rng) {
    RegisterModule(&weights_);
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape({1})));
  }

  Variable Forward(const data::Batch& batch) const {
    // [B*m, 1] -> [B, m]; scale by per-field values; sum over fields.
    Variable w = weights_.Forward(batch.ids);
    w = ag::Reshape(w, Shape({batch.batch_size, batch.num_fields}));
    w = ag::Mul(w, ag::Constant(batch.ValuesTensor()));
    Variable out = ag::Sum(w, 1, /*keepdim=*/false);  // [B]
    return ag::Add(out, bias_);
  }

 private:
  nn::Embedding weights_;
  Variable bias_;
};

// Embedding layer shared by all second-order+ models: the paper's
// preprocessing module (Section 3.2.1). Categorical fields use plain
// lookups; numerical fields scale their single embedding row by the value.
// Forward -> [B, m, n_e].
class FeaturesEmbedding : public nn::Module {
 public:
  FeaturesEmbedding(int64_t num_features, int64_t embed_dim, Rng& rng)
      : embed_dim_(embed_dim), table_(num_features, embed_dim, rng) {
    RegisterModule(&table_);
  }

  Variable Forward(const data::Batch& batch) const {
    Variable e = table_.Forward(batch.ids);  // [B*m, n_e]
    e = ag::Reshape(e,
                    Shape({batch.batch_size, batch.num_fields, embed_dim_}));
    // Scale each field's embedding by its value ([B, m, 1] broadcast).
    Tensor values = batch.ValuesTensor().Reshape(
        Shape({batch.batch_size, batch.num_fields, 1}));
    return ag::Mul(e, ag::Constant(std::move(values)));
  }

  int64_t embed_dim() const { return embed_dim_; }

 private:
  int64_t embed_dim_;
  nn::Embedding table_;
};

// Index pairs (i, j), i < j, for pairwise-interaction models; returned as
// two parallel vectors usable with ag::IndexSelect along the field axis.
struct PairIndices {
  std::vector<int64_t> left;
  std::vector<int64_t> right;
};

inline PairIndices MakePairIndices(int num_fields) {
  PairIndices pairs;
  for (int i = 0; i < num_fields; ++i) {
    for (int j = i + 1; j < num_fields; ++j) {
      pairs.left.push_back(i);
      pairs.right.push_back(j);
    }
  }
  return pairs;
}

// FM second-order interaction in vector form ("bi-interaction pooling"):
// 0.5 * ((sum_f e_f)^2 - sum_f e_f^2) -> [B, n_e].
inline Variable BiInteraction(const Variable& embeddings) {
  Variable sum_f = ag::Sum(embeddings, 1, /*keepdim=*/false);  // [B, ne]
  Variable square_of_sum = ag::Square(sum_f);                  // [B, ne]
  Variable sum_of_square =
      ag::Sum(ag::Square(embeddings), 1, /*keepdim=*/false);   // [B, ne]
  return ag::MulScalar(ag::Sub(square_of_sum, sum_of_square), 0.5f);
}

// Flattens [B, m, ne] embeddings to [B, m*ne].
inline Variable FlattenEmbeddings(const Variable& embeddings) {
  const int64_t b = embeddings.shape().dim(0);
  return ag::Reshape(embeddings, Shape({b, -1}));
}

// Squeezes a [B, 1] logit column to [B].
inline Variable SqueezeLogit(const Variable& column) {
  const int64_t b = column.shape().dim(0);
  return ag::Reshape(column, Shape({b}));
}

}  // namespace armnet::models

#endif  // ARMNET_CORE_TABULAR_H_
