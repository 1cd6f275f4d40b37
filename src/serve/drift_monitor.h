#ifndef ARMNET_SERVE_DRIFT_MONITOR_H_
#define ARMNET_SERVE_DRIFT_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/feature_space.h"
#include "util/clock.h"
#include "util/sync.h"

namespace armnet::serve {

// Online drift monitoring for PredictionService (DESIGN.md §15).
//
// The monitor compares live traffic against the training-time
// DriftReference embedded in the serving artifact along three axes:
// per-field OOV rate, per-field clamp rate, and the shape of the score
// distribution (PSI over a fixed-bin sigmoid(logit) histogram). All state
// lives in time-bucketed sliding windows so an alert reflects *recent*
// traffic and clears when the traffic recovers — cumulative counters can
// never un-drift.
//
// Placement mirrors the serve counter scheme: one shard per worker plus
// one for the synchronous paths, each under its own leaf mutex, updated
// only on the worker drain path (never at submit — enforced by the
// `drift-drain` lint rule). Evaluation merges the shards, which is cheap
// (shards × (fields + bins)) and also happens on the drain path.

struct DriftOptions {
  // Sliding-window span and granularity: the window is `window_buckets`
  // time buckets of window_seconds / window_buckets each, rotated lazily
  // against the service clock (VirtualClock in tests).
  double window_seconds = 60.0;
  int window_buckets = 6;
  // No alert evaluates until the window holds this many drained requests;
  // rate estimates over a handful of rows are noise.
  int64_t min_window_requests = 200;
  // A field alerts when its windowed rate exceeds the artifact baseline by
  // more than this margin (rates are in [0, 1]).
  double oov_rate_threshold = 0.10;
  double clamp_rate_threshold = 0.10;
  // Population-stability-index alert threshold for the score histogram;
  // 0.25 is the classic "significant shift" rule of thumb.
  double psi_threshold = 0.25;
};

// One drained batch worth of observations, assembled by the service.
struct DriftBatchSample {
  int64_t rows = 0;
  // Per-field degraded-cell counts summed over the batch, indexed like
  // FeatureSpace::fields(). Empty vectors mean all-zero.
  std::vector<int64_t> oov_counts;
  std::vector<int64_t> clamp_counts;
  // Primary-model logits for the scored rows (empty when the batch
  // degraded before a forward produced finite scores).
  std::vector<float> logits;
};

// Newly raised / newly cleared alerts from one evaluation pass. `raised`
// entries are full human-readable descriptions naming the drifting column
// and the evidence; `cleared` entries name the alert key that recovered.
struct DriftEvents {
  std::vector<std::string> raised;
  std::vector<std::string> cleared;
};

// Per-field view for snapshot export.
struct DriftFieldStats {
  std::string field;
  double window_oov_rate = 0;
  double window_clamp_rate = 0;
  double baseline_oov_rate = 0;
  double baseline_clamp_rate = 0;
  int64_t total_oov = 0;      // cumulative since construction
  int64_t total_clamped = 0;  // cumulative since construction
  bool alerting = false;
};

struct DriftSnapshotData {
  bool enabled = false;
  bool alert_active = false;
  int64_t window_requests = 0;
  int64_t window_scored = 0;
  double score_psi = 0;
  std::vector<DriftFieldStats> fields;
};

class DriftMonitor {
 public:
  // `space` must outlive the monitor (the service already guarantees this
  // for its own FeatureSpace reference). `clock` must be non-null and
  // outlive the monitor. `shards` follows the serve scheme: workers + 1.
  // A space without a drift reference yields a permanently disabled
  // monitor: every method is a cheap no-op.
  DriftMonitor(const data::FeatureSpace& space, const DriftOptions& options,
               Clock* clock, int shards);

  bool enabled() const { return enabled_; }

  // Drain-path update. `sample` is consumed (the serve/drift_skew fault
  // site rewrites it in place to simulate hostile traffic: every
  // categorical cell OOV, scores pinned to the extreme bin).
  void Observe(int shard, DriftBatchSample* sample);

  // Re-derives the active alert set from the current window and reports
  // edges. Latched: a raised alert stays active (Ready degraded) until an
  // evaluation with recovered windows clears it.
  DriftEvents EvaluateAlerts();

  // Lock-free view of "any alert latched", for the Ready probe.
  bool alert_active() const {
    return alert_active_.load(std::memory_order_relaxed);
  }

  DriftSnapshotData Snapshot();

  // Snapshot flattened to name/value pairs ("drift/field/<name>/oov_rate",
  // ...), the `drift/section` row of bench_serving.
  std::vector<std::pair<std::string, double>> MetricsSnapshot();

 private:
  struct Bucket {
    int64_t tag = -1;  // floor(now / bucket_span); -1 = never used
    int64_t requests = 0;
    int64_t scored = 0;
    std::vector<int64_t> oov;    // per field
    std::vector<int64_t> clamp;  // per field
    std::vector<int64_t> hist;   // kDriftScoreBins score bins
  };

  struct Shard {
    Mutex mu;
    std::vector<Bucket> buckets ARMNET_GUARDED_BY(mu);
    // Cumulative per-field totals (never windowed) for counter export.
    std::vector<int64_t> total_oov ARMNET_GUARDED_BY(mu);
    std::vector<int64_t> total_clamp ARMNET_GUARDED_BY(mu);
  };

  struct WindowTotals {
    int64_t requests = 0;
    int64_t scored = 0;
    std::vector<int64_t> oov;
    std::vector<int64_t> clamp;
    std::vector<int64_t> hist;
    std::vector<int64_t> total_oov;
    std::vector<int64_t> total_clamp;
  };

  int64_t TagForNow() const;
  void MergeWindow(WindowTotals* out);
  // Active alert keys + descriptions for the merged window.
  void ActiveAlerts(const WindowTotals& w,
                    std::vector<std::pair<std::string, std::string>>* out,
                    double* psi_out) const;
  double ScorePsi(const std::vector<int64_t>& window_hist) const;

  const data::FeatureSpace& space_;
  DriftOptions options_;
  Clock* clock_;
  bool enabled_ = false;
  int num_fields_ = 0;
  double bucket_span_ = 1.0;
  // Reference distribution, copied out of the artifact at construction.
  std::vector<double> ref_probs_;          // smoothed, sums to 1
  std::vector<double> baseline_oov_;       // per field
  std::vector<double> baseline_clamp_;     // per field
  std::vector<std::unique_ptr<Shard>> shards_;

  Mutex alert_mu_;
  std::unordered_set<std::string> alert_keys_ ARMNET_GUARDED_BY(alert_mu_);
  std::atomic<bool> alert_active_{false};
};

}  // namespace armnet::serve

#endif  // ARMNET_SERVE_DRIFT_MONITOR_H_
