#include "armor/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "armor/checkpoint.h"
#include "autograd/grad_mode.h"
#include "data/batcher.h"
#include "data/feature_space.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace armnet::armor {

namespace {

// A pre-clip gradient norm above this multiple of the running mean counts
// as divergence (after a 32-step warmup).
constexpr double kGradSpikeFactor = 1e4;

// Deep copy of the full model state: parameters plus non-learnable buffers
// (batch-norm running statistics), so best-epoch restoration is exact.
struct ModelSnapshot {
  std::vector<Tensor> params;
  std::vector<Tensor> buffers;
};

ModelSnapshot Snapshot(const std::vector<Variable>& params,
                       const std::vector<Tensor>& buffers) {
  ModelSnapshot snapshot;
  snapshot.params.reserve(params.size());
  for (const Variable& p : params) snapshot.params.push_back(p.value().Clone());
  snapshot.buffers.reserve(buffers.size());
  for (const Tensor& b : buffers) snapshot.buffers.push_back(b.Clone());
  return snapshot;
}

void Restore(std::vector<Variable>& params, std::vector<Tensor>& buffers,
             const ModelSnapshot& snapshot) {
  ARMNET_CHECK_EQ(params.size(), snapshot.params.size());
  ARMNET_CHECK_EQ(buffers.size(), snapshot.buffers.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& dst = params[i].mutable_value();
    const Tensor& src = snapshot.params[i];
    ARMNET_CHECK(dst.shape() == src.shape());
    std::copy(src.data(), src.data() + src.numel(), dst.data());
  }
  for (size_t i = 0; i < buffers.size(); ++i) {
    // Buffers are shared handles into the modules' state.
    Tensor& dst = buffers[i];
    const Tensor& src = snapshot.buffers[i];
    ARMNET_CHECK(dst.shape() == src.shape());
    std::copy(src.data(), src.data() + src.numel(), dst.data());
  }
}

// Model + optimizer state captured at the end of a good epoch; divergence
// rollback returns the run here before retrying with a smaller LR.
struct RunState {
  ModelSnapshot model;
  int64_t adam_step = 0;
  std::vector<Tensor> adam_m;
  std::vector<Tensor> adam_v;
};

RunState CaptureRun(const std::vector<Variable>& params,
                    const std::vector<Tensor>& buffers,
                    const optim::Adam& optimizer) {
  RunState state;
  state.model = Snapshot(params, buffers);
  optimizer.ExportState(&state.adam_step, &state.adam_m, &state.adam_v);
  return state;
}

void RestoreRun(std::vector<Variable>& params, std::vector<Tensor>& buffers,
                optim::Adam& optimizer, const RunState& state) {
  Restore(params, buffers, state.model);
  // The state was captured from this very optimizer, so a mismatch is a
  // programmer error, not recoverable input.
  const Status status =
      optimizer.ImportState(state.adam_step, state.adam_m, state.adam_v);
  ARMNET_CHECK(status.ok()) << status.message();
}

}  // namespace

TrainResult Fit(models::TabularModel& model, const data::Splits& splits,
                const TrainConfig& config) {
  Rng rng(config.seed);
  Rng dropout_rng = rng.Fork();
  std::vector<Variable> params = model.Parameters();
  optim::Adam optimizer(params, config.learning_rate, 0.9f, 0.999f, 1e-8f,
                        config.weight_decay);
  data::Batcher batcher(splits.train, config.batch_size, /*shuffle=*/true,
                        rng.Fork());

  TrainResult result;
  std::vector<Tensor> buffers = model.Buffers();
  float lr = config.learning_rate;
  bool has_best = false;
  ModelSnapshot best = Snapshot(params, buffers);
  int epochs_since_best = 0;
  int start_epoch = 0;
  Stopwatch watch;
  // Injected clock stalls accumulate here so the watchdog sees them.
  double stall_seconds = 0;

  auto incident = [&result, &config](std::string message) {
    if (config.verbose) {
      std::fprintf(stderr, "[trainer] %s\n", message.c_str());
    }
    result.incidents.push_back(std::move(message));
  };

  // --- Epoch telemetry (DESIGN.md §10) ---------------------------------
  // One JSONL record per completed epoch. Telemetry is best-effort: any
  // I/O failure raises an incident and disables further writes, so a full
  // disk can never take the training run down with it.
  std::string telemetry_path = config.telemetry_path;
  if (telemetry_path.empty() && !config.checkpoint_dir.empty()) {
    telemetry_path = config.checkpoint_dir + "/epochs.jsonl";
  }
  bool telemetry_on = !telemetry_path.empty();
  if (telemetry_on) {
    const std::filesystem::path parent =
        std::filesystem::path(telemetry_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
      if (ec) {
        telemetry_on = false;
        incident("epoch telemetry disabled: cannot create " +
                 parent.string() + ": " + ec.message());
      }
    }
  }
  // Incidents already serialized into some record; each record carries
  // only the ones raised since the previous record, so resumed runs and
  // diverged-epoch retries attribute faults to the next line written.
  size_t incidents_reported = result.incidents.size();
  auto write_epoch_telemetry =
      [&](int epoch_number, double train_loss, int64_t steps,
          double grad_norm_mean, const EvalResult& validation, double metric,
          int64_t train_nodes_recorded, int64_t train_nodes_elided,
          double epoch_seconds) {
        if (!telemetry_on) return;
        JsonWriter w;
        w.BeginObject();
        w.Key("epoch").Int(epoch_number);
        w.Key("train_loss").Double(train_loss);
        w.Key("steps").Int(steps);
        w.Key("grad_norm_mean").Double(grad_norm_mean);
        w.Key("lr").Double(lr);
        w.Key("val_metric").Double(metric);
        w.Key("val_auc").Double(validation.auc);
        w.Key("val_logloss").Double(validation.logloss);
        w.Key("val_rmse").Double(validation.rmse);
        w.Key("non_finite_logits").Int(validation.non_finite_logits);
        w.Key("epoch_seconds").Double(epoch_seconds);
        w.Key("tape").BeginObject();
        w.Key("train_nodes_recorded").Int(train_nodes_recorded);
        w.Key("train_nodes_elided").Int(train_nodes_elided);
        w.Key("eval_nodes_recorded").Int(validation.tape_nodes_recorded);
        w.Key("eval_nodes_elided").Int(validation.tape_nodes_elided);
        w.EndObject();
        w.Key("incidents").BeginArray();
        for (size_t i = incidents_reported; i < result.incidents.size();
             ++i) {
          w.String(result.incidents[i]);
        }
        w.EndArray();
        w.EndObject();
        incidents_reported = result.incidents.size();
        const Status appended = AppendLine(telemetry_path, w.str());
        if (!appended.ok()) {
          telemetry_on = false;
          incident("epoch telemetry disabled: " + appended.message());
        }
      };

  // Validates a loaded checkpoint against this run's config and model,
  // then applies it. Validation happens up front so a mismatched or
  // hostile checkpoint leaves the fresh-initialized run untouched.
  auto apply_checkpoint = [&](TrainCheckpoint& ckpt) -> Status {
    if (ckpt.seed != config.seed ||
        ckpt.task != static_cast<uint32_t>(config.task) ||
        ckpt.batch_size != config.batch_size) {
      return Status::Error(
          "checkpoint was written under a different seed/task/batch size");
    }
    if (ckpt.epochs_completed < 0 ||
        static_cast<int64_t>(ckpt.history.size()) != ckpt.epochs_completed) {
      return Status::Error("checkpoint epoch bookkeeping is inconsistent");
    }
    if (ckpt.params.size() != params.size() ||
        ckpt.best_params.size() != params.size() ||
        ckpt.buffers.size() != buffers.size() ||
        ckpt.best_buffers.size() != buffers.size()) {
      return Status::Error("checkpoint tensor counts do not match the model");
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (ckpt.params[i].shape() != params[i].shape() ||
          ckpt.best_params[i].shape() != params[i].shape()) {
        return Status::Error(
            StrFormat("checkpoint shape mismatch for parameter %zu", i));
      }
    }
    for (size_t i = 0; i < buffers.size(); ++i) {
      if (ckpt.buffers[i].shape() != buffers[i].shape() ||
          ckpt.best_buffers[i].shape() != buffers[i].shape()) {
        return Status::Error(
            StrFormat("checkpoint shape mismatch for buffer %zu", i));
      }
    }
    const Status order_valid = data::Batcher::ValidateOrder(
        ckpt.batcher_order, splits.train.size());
    if (!order_valid.ok()) {
      return Status::Error("checkpoint batch permutation rejected: " +
                           order_valid.message());
    }
    Status adam =
        optimizer.ImportState(ckpt.adam_step, ckpt.adam_m, ckpt.adam_v);
    if (!adam.ok()) return adam;

    for (size_t i = 0; i < params.size(); ++i) {
      Tensor& dst = params[i].mutable_value();
      std::copy(ckpt.params[i].data(),
                ckpt.params[i].data() + ckpt.params[i].numel(), dst.data());
    }
    for (size_t i = 0; i < buffers.size(); ++i) {
      std::copy(ckpt.buffers[i].data(),
                ckpt.buffers[i].data() + ckpt.buffers[i].numel(),
                buffers[i].data());
    }
    best.params = std::move(ckpt.best_params);
    best.buffers = std::move(ckpt.best_buffers);
    lr = ckpt.learning_rate;
    optimizer.set_learning_rate(lr);
    dropout_rng.SetState(ckpt.dropout_rng);
    batcher.set_rng_state(ckpt.batcher_rng);
    // ValidateOrder accepted this permutation above, so adoption is
    // infallible here — a failure now is a programmer error.
    const Status order_applied =
        batcher.set_order(std::move(ckpt.batcher_order));
    ARMNET_CHECK(order_applied.ok()) << order_applied.message();
    has_best = ckpt.has_best;
    result.best_validation_metric = ckpt.best_metric;
    epochs_since_best = static_cast<int>(ckpt.epochs_since_best);
    result.divergence_recoveries =
        static_cast<int>(ckpt.divergence_recoveries);
    result.validation_metric_history = ckpt.history;
    start_epoch = static_cast<int>(ckpt.epochs_completed);
    result.resumed_from_epoch = start_epoch;
    result.epochs_run = start_epoch;
    return Status::Ok();
  };

  if (!config.checkpoint_dir.empty() &&
      TrainCheckpointExists(config.checkpoint_dir)) {
    StatusOr<TrainCheckpoint> loaded =
        LoadTrainCheckpoint(config.checkpoint_dir);
    if (!loaded.ok()) {
      incident("checkpoint unreadable, starting fresh: " +
               loaded.status().message());
    } else {
      const Status applied = apply_checkpoint(loaded.value());
      if (!applied.ok()) {
        incident("checkpoint rejected, starting fresh: " + applied.message());
      } else if (config.verbose) {
        std::fprintf(stderr, "[trainer] resumed after epoch %d from %s\n",
                     start_epoch,
                     TrainCheckpointPath(config.checkpoint_dir).c_str());
      }
    }
  }

  RunState last_good = CaptureRun(params, buffers, optimizer);

  int epoch = start_epoch;
  while (epoch < config.max_epochs) {
    Stopwatch epoch_watch;
    const autograd::TapeStats epoch_tape_before = autograd::GetTapeStats();
    model.SetTraining(true);
    batcher.Reset();
    data::Batch batch;
    double epoch_loss = 0;
    int64_t steps = 0;
    bool diverged = false;
    std::string diverge_reason;
    double norm_sum = 0;
    int64_t norm_count = 0;
    while (batcher.Next(&batch)) {
      Variable logits = model.Forward(batch, dropout_rng);
      Variable loss =
          config.task == Task::kClassification
              ? ag::BceWithLogits(logits, batch.LabelsTensor())
              : ag::MseLoss(logits, batch.LabelsTensor());
      if (fault::ShouldFail(fault::kSiteTrainerLoss,
                            fault::Kind::kPoisonTensor)) {
        Tensor value = loss.value();  // shared handle: poisons the loss
        value.data()[0] = std::numeric_limits<float>::quiet_NaN();
      }
      const float loss_value = loss.value().item();
      if (!std::isfinite(loss_value)) {
        diverged = true;
        diverge_reason = StrFormat("non-finite loss at step %lld",
                                   static_cast<long long>(steps + 1));
        break;
      }
      optimizer.ZeroGrad();
      loss.Backward();
      const double norm = optim::ClipGradNorm(params, config.grad_clip_norm);
      if (!std::isfinite(norm)) {
        diverged = true;
        diverge_reason = StrFormat("non-finite gradient norm at step %lld",
                                   static_cast<long long>(steps + 1));
        break;
      }
      if (norm_count >= 32 &&
          norm > kGradSpikeFactor *
                     (norm_sum / static_cast<double>(norm_count))) {
        diverged = true;
        diverge_reason = StrFormat(
            "gradient norm spike at step %lld (%.3g vs running mean %.3g)",
            static_cast<long long>(steps + 1), norm,
            norm_sum / static_cast<double>(norm_count));
        break;
      }
      optimizer.Step();
      norm_sum += norm;
      ++norm_count;
      epoch_loss += loss_value;
      ++steps;
      if (config.max_batches_per_epoch > 0 &&
          steps >= config.max_batches_per_epoch) {
        break;
      }
      stall_seconds += fault::ClockStallSeconds(fault::kSiteTrainerClock);
      if (config.max_train_seconds > 0 &&
          watch.ElapsedSeconds() + stall_seconds > config.max_train_seconds) {
        result.watchdog_fired = true;
        break;
      }
    }

    if (diverged) {
      if (result.divergence_recoveries >= config.max_divergence_retries) {
        result.divergence_gave_up = true;
        RestoreRun(params, buffers, optimizer, last_good);
        incident(StrFormat(
            "epoch %d: %s; retry budget exhausted after %d recoveries — "
            "stopping with the last good weights",
            epoch + 1, diverge_reason.c_str(), result.divergence_recoveries));
        break;
      }
      ++result.divergence_recoveries;
      RestoreRun(params, buffers, optimizer, last_good);
      lr *= config.divergence_lr_backoff;
      optimizer.set_learning_rate(lr);
      incident(StrFormat(
          "epoch %d: %s; rolled back to the last good state and backed the "
          "learning rate off to %g (recovery %d/%d)",
          epoch + 1, diverge_reason.c_str(), static_cast<double>(lr),
          result.divergence_recoveries, config.max_divergence_retries));
      continue;  // retry the same epoch
    }
    if (result.watchdog_fired) {
      incident(StrFormat(
          "watchdog: wall clock exceeded %.3f s during epoch %d; stopping "
          "with the best weights so far",
          config.max_train_seconds, epoch + 1));
      break;
    }

    result.epochs_run = epoch + 1;
    const autograd::TapeStats epoch_tape_after = autograd::GetTapeStats();

    // Evaluate runs tape-free under NoGradGuard and restores the model's
    // training mode on exit (see armor/evaluator.cc).
    const EvalResult validation =
        Evaluate(model, splits.validation, config.batch_size);
    // Selection metric, oriented so larger is better.
    const double metric = config.task == Task::kClassification
                              ? validation.auc
                              : -validation.rmse;
    result.validation_metric_history.push_back(metric);
    if (config.verbose) {
      std::fprintf(stderr,
                   "[%s] epoch %d: train_loss=%.4f val_auc=%.4f "
                   "val_logloss=%.4f val_rmse=%.4f\n",
                   model.name().c_str(), epoch + 1,
                   epoch_loss / static_cast<double>(steps > 0 ? steps : 1),
                   validation.auc, validation.logloss, validation.rmse);
    }

    // A non-finite metric must neither become "best" (NaN comparisons are
    // always false, which used to freeze the first-epoch best forever) nor
    // reset patience: it counts as a non-improving epoch.
    const bool finite_metric = std::isfinite(metric);
    if (!finite_metric) {
      incident(StrFormat(
          "epoch %d: non-finite validation metric; counted as a "
          "non-improving epoch",
          epoch + 1));
    }
    if (finite_metric &&
        (!has_best || metric > result.best_validation_metric)) {
      result.best_validation_metric = metric;
      best = Snapshot(params, buffers);
      has_best = true;
      epochs_since_best = 0;
    } else {
      ++epochs_since_best;
    }

    last_good = CaptureRun(params, buffers, optimizer);

    if (!config.checkpoint_dir.empty()) {
      TrainCheckpoint ckpt;
      ckpt.seed = config.seed;
      ckpt.task = static_cast<uint32_t>(config.task);
      ckpt.batch_size = config.batch_size;
      ckpt.epochs_completed = epoch + 1;
      ckpt.learning_rate = lr;
      ckpt.has_best = has_best;
      ckpt.best_metric = result.best_validation_metric;
      ckpt.epochs_since_best = epochs_since_best;
      ckpt.divergence_recoveries = result.divergence_recoveries;
      ckpt.history = result.validation_metric_history;
      ckpt.dropout_rng = dropout_rng.GetState();
      ckpt.batcher_rng = batcher.rng_state();
      ckpt.batcher_order = batcher.order();
      for (const Tensor& t : last_good.model.params) {
        ckpt.params.push_back(t.Clone());
      }
      for (const Tensor& t : last_good.model.buffers) {
        ckpt.buffers.push_back(t.Clone());
      }
      for (const Tensor& t : best.params) {
        ckpt.best_params.push_back(t.Clone());
      }
      for (const Tensor& t : best.buffers) {
        ckpt.best_buffers.push_back(t.Clone());
      }
      optimizer.ExportState(&ckpt.adam_step, &ckpt.adam_m, &ckpt.adam_v);
      const Status saved =
          SaveTrainCheckpoint(ckpt, config.checkpoint_dir);
      if (!saved.ok()) {
        incident(StrFormat("epoch %d: checkpoint save failed: %s", epoch + 1,
                           saved.message().c_str()));
      }
    }

    write_epoch_telemetry(
        epoch + 1, epoch_loss / static_cast<double>(steps > 0 ? steps : 1),
        steps, norm_count > 0 ? norm_sum / static_cast<double>(norm_count)
                              : 0.0,
        validation, metric,
        epoch_tape_after.nodes_recorded - epoch_tape_before.nodes_recorded,
        epoch_tape_after.nodes_elided - epoch_tape_before.nodes_elided,
        epoch_watch.ElapsedSeconds());

    if (epochs_since_best >= config.patience) break;
    ++epoch;
  }
  if (config.task == Task::kClassification) {
    result.best_validation_auc = result.best_validation_metric;
  }
  result.train_seconds = watch.ElapsedSeconds();

  Restore(params, buffers, best);

  // Serving export: persist the best-epoch weights (and the feature-space
  // artifact the prediction service replays) as a deployable pair. Export
  // problems are incidents — a full disk must not discard a finished run.
  const std::string export_dir =
      !config.export_dir.empty() ? config.export_dir : config.checkpoint_dir;
  if (!export_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(export_dir, ec);
    const Status saved_model =
        nn::SaveState(model, export_dir + "/model.state");
    if (!saved_model.ok()) {
      incident("model export failed: " + saved_model.message());
    }
    if (config.export_feature_space != nullptr) {
      data::FeatureSpace artifact_space = *config.export_feature_space;
      // Drift reference (DESIGN.md §15): the restored best-epoch model's
      // score distribution over the validation split (training split when
      // no validation rows exist) becomes the serving-time comparison
      // baseline. Per-field baseline rates stay zero — the vocabulary and
      // ranges were built from this very data, so nothing is OOV or
      // out-of-range by construction.
      const data::Dataset& reference_split =
          splits.validation.size() > 0 ? splits.validation : splits.train;
      const std::vector<float> logits =
          PredictLogits(model, reference_split, config.batch_size);
      data::DriftReference reference;
      reference.score_histogram.assign(data::kDriftScoreBins, 0);
      int64_t counted = 0;
      for (const float logit : logits) {
        if (!std::isfinite(logit)) continue;
        const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(logit)));
        int bin = static_cast<int>(p * data::kDriftScoreBins);
        bin = std::min(std::max(bin, 0), data::kDriftScoreBins - 1);
        ++reference.score_histogram[static_cast<size_t>(bin)];
        ++counted;
      }
      if (counted > 0) {
        artifact_space.set_drift_reference(std::move(reference));
      } else {
        incident(
            "drift reference skipped: no finite reference-split scores");
      }
      const Status saved_space = data::SaveFeatureSpace(
          artifact_space, export_dir + "/serving.artifact");
      if (!saved_space.ok()) {
        incident("serving artifact export failed: " + saved_space.message());
      }
    }
  }

  result.test = Evaluate(model, splits.test, config.batch_size);
  return result;
}

}  // namespace armnet::armor
