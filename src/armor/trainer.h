#ifndef ARMNET_ARMOR_TRAINER_H_
#define ARMNET_ARMOR_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "armor/evaluator.h"
#include "core/tabular.h"
#include "data/split.h"

namespace armnet::data {
class FeatureSpace;
}  // namespace armnet::data

namespace armnet::armor {

// Learning task: drives the loss and the early-stopping metric (§3.3 —
// "ARM-Net can be adopted in various learning tasks, such as
// classification, regression with a proper objective function").
enum class Task {
  kClassification,  // binary cross entropy, early stop on validation AUC
  kRegression,      // mean squared error, early stop on validation RMSE
};

// Training protocol of the paper's Section 4.1: Adam, early stopping on
// the validation metric, best-epoch weights (and buffers) restored before
// the final test evaluation.
struct TrainConfig {
  Task task = Task::kClassification;
  int max_epochs = 12;
  int64_t batch_size = 512;
  float learning_rate = 1e-3f;
  float weight_decay = 0.0f;
  // Stop after this many epochs without validation improvement.
  int patience = 3;
  double grad_clip_norm = 50.0;
  uint64_t seed = 7;
  bool verbose = false;
  // 0 = full epochs; otherwise caps steps per epoch (quick benches).
  int64_t max_batches_per_epoch = 0;

  // --- Fault tolerance (see DESIGN.md §8) ------------------------------
  // Directory for epoch-granular training checkpoints; empty disables
  // them. After every completed epoch the full run state (weights,
  // buffers, best snapshot, Adam moments, RNG streams, early-stopping
  // bookkeeping) is persisted atomically. When Fit() starts and the
  // directory already holds a checkpoint written under the same seed,
  // task, and batch size, the run resumes from it and replays the
  // remaining epochs bit-identically to an uninterrupted run.
  std::string checkpoint_dir;
  // Divergence recovery: a non-finite loss, non-finite gradient norm, or
  // gradient-norm spike rolls the model and optimizer back to the end of
  // the last good epoch and retries with the learning rate multiplied by
  // `divergence_lr_backoff`. After `max_divergence_retries` rollbacks the
  // run stops and reports the failure in TrainResult. A spike is a pre-clip
  // gradient norm above 1e4 times the running mean, after a 32-step warmup.
  int max_divergence_retries = 3;
  float divergence_lr_backoff = 0.5f;
  // Wall-clock watchdog: stop training (keeping the best weights and the
  // latest checkpoint) once the run exceeds this many seconds. 0 = off.
  double max_train_seconds = 0;

  // --- Observability (see DESIGN.md §10) -------------------------------
  // JSONL file appended with one record per completed epoch: train loss,
  // validation metrics, mean gradient norm, learning rate, epoch wall
  // time, tape counters, and the incidents raised since the previous
  // record. Empty derives "<checkpoint_dir>/epochs.jsonl" when checkpoints
  // are on; telemetry is off when both are empty. Write failures disable
  // telemetry for the rest of the run (with an incident) — they never
  // abort training.
  std::string telemetry_path;

  // --- Serving export (see DESIGN.md §11) -------------------------------
  // Directory receiving the deployable pair after the best-epoch weights
  // are restored: "model.state" (kStateKindModel) and, when
  // `export_feature_space` is set, "serving.artifact"
  // (kStateKindServingArtifact — the schema/vocab/range mapping the
  // prediction service replays). Empty falls back to checkpoint_dir;
  // export is off when both are empty. Export failures are incidents,
  // never training aborts.
  std::string export_dir;
  // Train-time feature mapping to persist alongside the weights
  // (non-owning; typically filled by LoadCsvWithVocab). Null skips the
  // artifact. The artifact always embeds a drift reference (DESIGN.md
  // §15): the best-epoch model's score histogram over the validation split
  // plus per-field baseline OOV/clamp rates (zero by construction — the
  // vocabulary and ranges come from the training data).
  const data::FeatureSpace* export_feature_space = nullptr;
};

struct TrainResult {
  // Best validation value of the selection metric, oriented so higher is
  // better: AUC for classification, -RMSE for regression.
  double best_validation_metric = 0;
  // Convenience alias valid for classification runs.
  double best_validation_auc = 0;
  EvalResult test;
  int epochs_run = 0;
  std::vector<double> validation_metric_history;
  double train_seconds = 0;

  // --- Robustness report -----------------------------------------------
  // Rollback + learning-rate-backoff recoveries performed.
  int divergence_recoveries = 0;
  // True when divergence persisted past max_divergence_retries and the
  // run stopped early with the last good weights.
  bool divergence_gave_up = false;
  // True when the wall-clock watchdog stopped the run.
  bool watchdog_fired = false;
  // Completed epochs restored from checkpoint_dir (0 = fresh start).
  int resumed_from_epoch = 0;
  // Human-readable log of every fault handled during the run (rollbacks,
  // non-finite validation metrics, checkpoint problems, watchdog).
  std::vector<std::string> incidents;
};

// Fits `model` on splits.train, early-stops on splits.validation, and
// reports metrics on splits.test with the best validation weights.
TrainResult Fit(models::TabularModel& model, const data::Splits& splits,
                const TrainConfig& config);

}  // namespace armnet::armor

#endif  // ARMNET_ARMOR_TRAINER_H_
