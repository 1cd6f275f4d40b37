#ifndef ARMNET_SERVE_SHADOW_H_
#define ARMNET_SERVE_SHADOW_H_

#include <cstdint>
#include <vector>

#include "util/sync.h"

namespace armnet::serve {

// Shadow-deployment policy knobs (DESIGN.md §15). A candidate model staged
// via PredictionService::LoadShadowModel sees a mirrored fraction of live
// batches off the request critical path; PromoteShadow publishes it through
// the normal RCU reload only when the accumulated score deltas sit inside
// these bounds.
struct ShadowOptions {
  // Fraction of drained batches mirrored to the shadow slot, in [0, 1].
  // Sampling is deterministic (Bresenham-style accumulator over the batch
  // sequence), so tests and reruns see the same mirror set.
  double mirror_fraction = 1.0;
  // Promotion refuses until at least this many rows were mirrored — a
  // delta estimate over a handful of rows is not evidence.
  int64_t min_mirrored_rows = 64;
  // Promotion bounds on the primary-vs-shadow logit deltas.
  double max_mean_abs_delta = 0.25;
  double max_p99_abs_delta = 1.0;
  // Bound on the rate of decision flips at the 0.5-probability threshold.
  double max_disagreement_rate = 0.02;
};

// Accumulated primary-vs-shadow comparison evidence.
struct ShadowStats {
  int64_t mirrored_batches = 0;
  int64_t mirrored_rows = 0;
  int64_t failed_forwards = 0;  // shadow produced non-finite logits
  int64_t disagreements = 0;
  double mean_abs_delta = 0;
  double p99_abs_delta = 0;
  double max_abs_delta = 0;
  double disagreement_rate = 0;
};

// Thread-safe delta accumulator. p99 comes from a fixed-bin histogram of
// |Δlogit| (linear bins over [0, kDeltaRange), one overflow bin reported as
// the observed max), so memory stays O(1) regardless of traffic.
class ShadowEvaluator {
 public:
  static constexpr int kDeltaBins = 64;
  static constexpr double kDeltaRange = 8.0;

  // Records one mirrored batch. Vectors must be the same length; non-finite
  // shadow logits must be filtered out by the caller (RecordFailure).
  void Record(const std::vector<float>& primary,
              const std::vector<float>& shadow);
  void RecordFailure();
  void Reset();
  ShadowStats Snapshot() const;

 private:
  mutable Mutex mu_;
  int64_t mirrored_batches_ ARMNET_GUARDED_BY(mu_) = 0;
  int64_t mirrored_rows_ ARMNET_GUARDED_BY(mu_) = 0;
  int64_t failed_forwards_ ARMNET_GUARDED_BY(mu_) = 0;
  int64_t disagreements_ ARMNET_GUARDED_BY(mu_) = 0;
  double sum_abs_delta_ ARMNET_GUARDED_BY(mu_) = 0;
  double max_abs_delta_ ARMNET_GUARDED_BY(mu_) = 0;
  int64_t delta_hist_[kDeltaBins + 1] ARMNET_GUARDED_BY(mu_) = {};
};

}  // namespace armnet::serve

#endif  // ARMNET_SERVE_SHADOW_H_
