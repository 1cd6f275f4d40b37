#ifndef ARMNET_ARMOR_EVALUATOR_H_
#define ARMNET_ARMOR_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "core/tabular.h"
#include "data/dataset.h"

namespace armnet::armor {

// Batched inference: raw logits for every row of `dataset`, in row order.
// Runs in eval mode and restores the model's previous mode.
std::vector<float> PredictLogits(models::TabularModel& model,
                                 const data::Dataset& dataset,
                                 int64_t batch_size = 1024);

struct EvalResult {
  double auc = 0;
  double logloss = 0;
  double accuracy = 0;
  // Root mean squared error of the raw model output against the labels;
  // the headline metric for regression tasks (§3.3 of the paper).
  double rmse = 0;

  // Non-finite logits the model produced (a diverged model's NaN/Inf
  // weights). When > 0 the metric fields above are quiet NaN: the metrics
  // layer CHECK-fails on non-finite scores (they are statistically
  // meaningless and break AUC's sort ordering), so the evaluator reports
  // the divergence to the caller instead of aborting — the trainer counts
  // a NaN validation metric as a non-improving epoch with an incident.
  int64_t non_finite_logits = 0;

  // Execution-mode telemetry for this evaluation pass (DESIGN.md §9/§10).
  // Tape deltas are read from the process-wide counters, so concurrent
  // training on other threads can inflate them; in the single-threaded
  // eval path `tape_nodes_recorded` is exactly 0.
  int64_t tape_nodes_recorded = 0;
  int64_t tape_nodes_elided = 0;
};

// AUC / Logloss / accuracy / RMSE of `model` on `dataset`.
EvalResult Evaluate(models::TabularModel& model, const data::Dataset& dataset,
                    int64_t batch_size = 1024);

}  // namespace armnet::armor

#endif  // ARMNET_ARMOR_EVALUATOR_H_
