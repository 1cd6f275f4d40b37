// Workload `train`: ARM-Net training at the Table 3 configuration on a
// Frappe-shaped table, B = 1024, Adam, closed loop; then the held-out split
// is scored with armor::PredictLogits.
//
// Why: alpha-entmax forward and backward are more than half of a training
// step, and this is the only workload through autograd and optim. It
// bypasses serve and plan.

#include <algorithm>
#include <cmath>
#include <memory>

#include "armor/evaluator.h"
#include "autograd/ops.h"
#include "common.h"
#include "core/arm_net.h"
#include "data/batcher.h"
#include "data/loader.h"
#include "metrics/metrics.h"
#include "optim/adam.h"
#include "probes.h"
#include "util/rng.h"

namespace armbench {

namespace {

using namespace armnet;

constexpr int64_t kBatch = 1024;
constexpr int64_t kTrainRows = 16384;
constexpr int64_t kHeldOutRows = 4096;
constexpr float kLearningRate = 1e-3f;
// Correctness floor on the held-out AUC after the timed steps. The planted
// task's Bayes AUC is about 0.8; a model that learned nothing scores 0.5.
constexpr double kAucFloor = 0.65;

struct TrainState {
  data::Dataset train;
  data::Dataset held_out;
  std::unique_ptr<core::ArmNet> model;
  std::unique_ptr<optim::Adam> optimizer;
  std::unique_ptr<data::Batcher> batcher;
};

// The program's set-up: load the generated CSV, split it, build the model,
// the optimizer and the batcher.
void Setup(const Args& args, const std::string& csv, TrainState* state,
           double* csv_load_s) {
  const double load_start = Now();
  StatusOr<data::Dataset> loaded = data::LoadCsvWithVocab(
      csv, std::vector<bool>(FrappeColumns().size(), false));
  *csv_load_s = Now() - load_start;
  ARMNET_CHECK(loaded.ok()) << loaded.status().message();
  std::vector<int64_t> train_rows(kTrainRows);
  std::vector<int64_t> held_rows(kHeldOutRows);
  for (int64_t i = 0; i < kTrainRows; ++i) train_rows[i] = i;
  for (int64_t i = 0; i < kHeldOutRows; ++i) held_rows[i] = kTrainRows + i;
  state->train = loaded.value().Subset(train_rows);
  state->held_out = loaded.value().Subset(held_rows);

  Rng rng(args.seed);
  state->model = std::make_unique<core::ArmNet>(
      state->train.schema().num_features(), state->train.num_fields(),
      Table3Config(), rng);
  state->optimizer = std::make_unique<optim::Adam>(
      state->model->Parameters(), kLearningRate);
  state->batcher = std::make_unique<data::Batcher>(
      state->train, kBatch, /*shuffle=*/true, Rng(args.seed + 1));
}

}  // namespace

void RunTrain(const Args& args, Tracer& tracer, Result* result) {
  // The input is generated once, outside the timed set-ups.
  const std::string csv = args.work_dir + "/frappe.csv";
  {
    TableGen gen(FrappeColumns(), args.seed);
    WriteTableCsv(gen, kTrainRows + kHeldOutRows, csv);
  }
  TrainState state;
  std::vector<double> csv_load_s;
  const std::vector<double> setup_times = TimeSetup([&] {
    state = TrainState();
    Setup(args, csv, &state, &csv_load_s.emplace_back());
  });
  result->Add("setup_rss_mb", PeakRssMb(), "MiB");
  core::ArmNet& model = *state.model;
  ArmProbe probe(model, state.train.schema().num_features());

  // At the seed one step takes about two seconds, so the timed phase lasts
  // about --seconds; a faster step shortens it. The count is fixed by
  // --seconds alone so val_auc compares like with like.
  const int steps =
      std::max(2, static_cast<int>(std::lround(args.seconds / 2)));
  Rng dropout_rng(args.seed + 2);
  std::vector<double> step_ms[2];  // [traced]
  int64_t tuples[2] = {0, 0};
  double seconds[2] = {0, 0};
  double max_gate_diff = 0;
  data::Batch batch;
  for (int i = 0; i < steps; ++i) {
    // In a traced run odd steps are traced and even steps are not, so the
    // two halves measure the tracing overhead under the same conditions.
    const bool traced = tracer.enabled() && i % 2 == 1;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;

    const double t0 = Now();
    {
      Scope span(t, "data.batch", i);
      if (!state.batcher->Next(&batch)) {
        state.batcher->Reset();
        state.batcher->Next(&batch);
      }
    }
    const double t1 = Now();
    if (traced) {
      max_gate_diff =
          std::max(max_gate_diff, probe.Run(batch, tracer, i, -1));
    }
    const double t2 = Now();
    double loss_value = 0;
    {
      Scope step(t, "train.step", i);
      Variable logits;
      {
        Scope span(t, "core.forward", i, step.id());
        logits = model.Forward(batch, dropout_rng);
      }
      Variable loss = ag::BceWithLogits(logits, batch.LabelsTensor());
      state.optimizer->ZeroGrad();
      {
        Scope span(t, "autograd.backward", i, step.id());
        loss.Backward();
      }
      {
        Scope span(t, "optim.step", i, step.id());
        state.optimizer->Step();
      }
      loss_value = loss.value().item();
    }
    const double t3 = Now();
    ++result->attempted;
    if (!std::isfinite(loss_value)) {
      ++result->failed;
      result->Fail("non-finite training loss at step " + std::to_string(i));
    }
    const double elapsed = (t1 - t0) + (t3 - t2);
    step_ms[traced].push_back(elapsed * 1e3);
    tuples[traced] += batch.batch_size;
    seconds[traced] += elapsed;
  }

  // Held-out scoring through the interpreted inference entry point.
  const double eval_start = Now();
  std::vector<float> logits;
  {
    Scope span(tracer, "armor.eval", -1);
    logits = armor::PredictLogits(model, state.held_out, kBatch);
  }
  const double eval_ms = (Now() - eval_start) * 1e3;
  bool finite = static_cast<int64_t>(logits.size()) == kHeldOutRows;
  for (float v : logits) finite = finite && std::isfinite(v);
  double auc = 0;
  if (!finite) {
    result->Fail("held-out logits missing or non-finite");
  } else {
    std::vector<float> labels(static_cast<size_t>(kHeldOutRows));
    for (int64_t i = 0; i < kHeldOutRows; ++i) {
      labels[static_cast<size_t>(i)] = state.held_out.label_at(i);
    }
    auc = metrics::Auc(logits, labels);
    if (!(auc >= kAucFloor)) {
      result->Fail("val_auc " + std::to_string(auc) + " is below the floor " +
                   std::to_string(kAucFloor));
    }
  }

  const std::vector<double>& timed = step_ms[0];
  AddSetup(setup_times, result);
  result->Add("tuples_per_s", static_cast<double>(tuples[0]) / seconds[0],
              "1/s");
  result->Note("train: " + std::to_string(timed.size()) +
               " timed steps of B=1024, median " +
               std::to_string(Median(timed)) + " ms, slowest " +
               std::to_string(Percentile(timed, 1.0)) + " ms; val_auc " +
               std::to_string(auc) + " on " + std::to_string(kHeldOutRows) +
               " held-out rows");
  std::string list;
  for (double ms : timed) list += " " + std::to_string(std::lround(ms));
  result->Note("train: timed step ms:" + list);

  if (tracer.enabled()) {
    const auto median_of = [&](const char* name) {
      return Median(tracer.SelfTimesMs(name));
    };
    const double entmax_ms = median_of("tensor.entmax");
    result->Layer("tensor.entmax_ms", entmax_ms, "ms");
    result->Layer("tensor.entmax_rows_per_s",
                  static_cast<double>(probe.EntmaxRows(kBatch)) /
                      (entmax_ms / 1e3),
                  "1/s");
    // core.forward has no child spans: its self time is its duration.
    result->Layer("core.forward_ms", median_of("core.forward"), "ms");
    result->Layer("core.embed_ms", median_of("core.embed"), "ms");
    result->Layer("core.arm_ms", median_of("core.arm"), "ms");
    result->Layer("autograd.backward_ms", median_of("autograd.backward"),
                  "ms");
    result->Layer("optim.step_ms", median_of("optim.step"), "ms");
    result->Layer("data.batch_ms", median_of("data.batch"), "ms");
    result->Layer("armor.eval_ms",
                  eval_ms / std::ceil(static_cast<double>(kHeldOutRows) /
                                      static_cast<double>(kBatch)),
                  "ms");
    result->Layer("armor.val_auc", auc, "auc");
    result->Layer("data.csv_load_s", Median(csv_load_s), "s");
    result->Layer("trace.overhead.tuples_per_s",
                  (static_cast<double>(tuples[0]) / seconds[0]) /
                          (static_cast<double>(tuples[1]) / seconds[1]) -
                      1.0,
                  "ratio");
    if (!(max_gate_diff <= kGateTolerance)) {
      result->Fail("train: rebuilt entmax gates differ from ArmModule's by " +
                   std::to_string(max_gate_diff));
    }
    result->Note("train trace: max |rebuilt gates - ArmModule gates| = " +
                 std::to_string(max_gate_diff) + "; forward share of " +
                 "entmax = " +
                 std::to_string(entmax_ms / median_of("core.forward")));
  }
}

}  // namespace armbench
