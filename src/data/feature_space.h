#ifndef ARMNET_DATA_FEATURE_SPACE_H_
#define ARMNET_DATA_FEATURE_SPACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "util/status.h"

namespace armnet::data {

// Train-time feature space, persisted for serving.
//
// A trained model is only as portable as its feature mapping: the embedding
// table is indexed by the global feature ids the *training* vocabulary
// assigned, so serving must replay exactly that assignment — never rebuild
// it from the incoming data (the historical LoadCsv behaviour, which makes
// a model unusable on data it didn't train on). FeatureSpace captures the
// mapping: per categorical field the token→local-id vocabulary, per
// numerical field the observed [lo, hi] range that anchors min-max
// rescaling, plus the train-split positive rate (the graceful-degradation
// prior, DESIGN.md §11).
//
// Local id 0 of every categorical field is reserved for UNK at vocab-build
// time, so an out-of-vocab token at serving time maps to a real embedding
// row — no table resize, no out-of-range id. Out-of-range numericals are
// clamped to the train-time range before rescaling, keeping every served
// value inside the distribution the model saw.

// Reserved local id for out-of-vocab categorical tokens.
inline constexpr int64_t kUnkLocalId = 0;

// Bin count of the drift-reference score histogram. Bins partition the
// sigmoid(logit) probability range [0, 1] uniformly — a fixed, bounded
// domain, so the serving-time window histogram and the training-time
// reference are always over identical bins (the PSI precondition).
inline constexpr int kDriftScoreBins = 16;

// Training-time reference distribution for online drift monitoring
// (DESIGN.md §15). The trainer fills this from the validation split after
// the best-epoch weights are restored and embeds it in the serving
// artifact; the prediction service compares its live sliding windows
// against it. An artifact without a reference (every pre-§15 artifact)
// simply loads with drift monitoring disabled.
struct DriftReference {
  // Histogram of sigmoid(logit) over kDriftScoreBins uniform bins in
  // [0, 1], counted on the validation split. Empty means "no reference".
  std::vector<int64_t> score_histogram;
  // Per-field baseline rates, indexed like FeatureSpace::fields(). The
  // training vocabulary and ranges are built from the training data, so
  // these are 0 by construction when the trainer exports them; non-zero
  // baselines can be set from held-out raw traffic by an operator.
  std::vector<double> baseline_oov_rate;
  std::vector<double> baseline_clamp_rate;

  bool valid() const { return !score_histogram.empty(); }
};

// One field's serving-time mapping state.
struct FieldVocab {
  std::string name;
  FieldType type = FieldType::kCategorical;
  // Categorical: tokens[i] carries local id i + 1 (0 is UNK).
  std::vector<std::string> tokens;
  // Numerical: train-time observed range (hi < lo means "no data seen";
  // such a field maps every value to the constant 1.0).
  float lo = 0;
  float hi = 0;
};

// One raw row mapped into model inputs.
struct MappedRow {
  std::vector<int64_t> ids;    // global feature ids, one per field
  std::vector<float> values;   // matching values (1.0 for categoricals)
  int oov_fields = 0;          // categorical cells mapped to UNK
  int clamped_fields = 0;      // numerical cells clamped into [lo, hi]
  // Which fields degraded, as indices into FeatureSpace::fields(). The
  // drift monitor aggregates these per column on the worker drain path so
  // an alert can name the drifting field, not just count events.
  std::vector<int32_t> oov_field_indices;
  std::vector<int32_t> clamped_field_indices;
};

class FeatureSpace {
 public:
  FeatureSpace() = default;
  // `positive_rate` is the train-split P(label = 1), used by serving as the
  // degradation prior.
  FeatureSpace(std::vector<FieldVocab> fields, double positive_rate);

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const std::vector<FieldVocab>& fields() const { return fields_; }
  double train_positive_rate() const { return positive_rate_; }

  // Schema induced by the vocabularies: categorical cardinality is
  // tokens.size() + 1 (the UNK slot), numerical fields occupy one id.
  // Matches the Schema the loader builds for the training Dataset.
  const Schema& schema() const { return schema_; }

  // Row count of the embedding table this feature space indexes (one row
  // per global feature id). This is the cardinality contract a quantized
  // embedding store must satisfy: Embedding::AttachStore rejects a store
  // whose row count differs, and MapRow never emits an id outside
  // [0, embedding_rows()) — UNK and clamping keep serving inputs inside it.
  int64_t embedding_rows() const { return schema_.num_features(); }

  // Maps one raw row (one string cell per field, label excluded) into
  // global feature ids + values. Recoverable input problems surface as
  // Status errors (wrong arity, unparsable numeric cell); OOV tokens map to
  // UNK and out-of-range numericals clamp, both counted in `out`.
  Status MapRow(const std::vector<std::string>& cells, MappedRow* out) const;

  // Drift reference (DESIGN.md §15). Absent on artifacts written before
  // the reference existed and on spaces the trainer exported without one;
  // the service treats "absent" as "drift monitoring disabled".
  bool has_drift_reference() const { return drift_reference_.valid(); }
  const DriftReference& drift_reference() const { return drift_reference_; }
  // `ref` must carry kDriftScoreBins histogram bins and per-field baseline
  // vectors either empty (treated as all-zero) or sized num_fields().
  void set_drift_reference(DriftReference ref);

 private:
  std::vector<FieldVocab> fields_;
  double positive_rate_ = 0.5;
  DriftReference drift_reference_;
  Schema schema_;
  // token → local id (1-based), one map per categorical field.
  std::vector<std::unordered_map<std::string, int64_t>> lookup_;
};

// Persists `space` as a serialize-v2 envelope (kStateKindServingArtifact):
// atomic write-then-rename, CRC-framed, same guarantees as model state.
Status SaveFeatureSpace(const FeatureSpace& space, const std::string& path);

// Reads an artifact back; fails with Status on any envelope or payload
// corruption, never returns a partially decoded space.
StatusOr<FeatureSpace> LoadFeatureSpace(const std::string& path);

}  // namespace armnet::data

#endif  // ARMNET_DATA_FEATURE_SPACE_H_
