// armbench_calibrate: measures the embedding scale that the `score`
// workload gives its model (kScoreEmbeddingStd in score_model.h).
//
//   cmake --build .bench_build/armbench --target armbench_calibrate
//   .bench_build/armbench/armbench_calibrate [--work-dir <dir>]
//
// Training the score model would dominate every benchmark run, so `score`
// draws its embedding table instead. This tool trains the same model (the
// Table 3 ArmNet on the score workload's Criteo layout and vocabulary) with
// the repository's trainer, armor::Fit (Adam, lr 1e-3, B=512, early
// stopping on validation AUC with patience 2), on 49,152 rows from the
// benchmark's generator. It then reports the standard deviation of the
// embedding rows that the score workload's rows look up, and compares the
// trained model with the drawn one on the score rows: logit span and the
// eval-mode layer times at B=1024. It takes about ten minutes on a 4-vCPU
// AVX2 machine.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "armor/evaluator.h"
#include "armor/trainer.h"
#include "common.h"
#include "data/loader.h"
#include "probes.h"
#include "score_model.h"

namespace {

using namespace armnet;
using armbench::Cells;

constexpr int64_t kTrainRows = 49152;
// A watchdog only: the recorded run stopped early after 527 s.
constexpr double kMaxTrainSeconds = 2400;

struct Stats {
  double mean = 0;
  double std = 0;
};

Stats StatsOf(const float* v, int64_t n) {
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += v[i];
    sq += static_cast<double>(v[i]) * v[i];
  }
  Stats s;
  s.mean = sum / static_cast<double>(n);
  s.std = std::sqrt(std::max(0.0, sq / static_cast<double>(n) -
                                      s.mean * s.mean));
  return s;
}

// Standard deviation of the table rows that `rows` look up, counted once
// per lookup.
double LookupStd(const Variable& table, const data::Dataset& rows,
                 int64_t embed_dim) {
  std::vector<int64_t> all(static_cast<size_t>(rows.size()));
  for (int64_t i = 0; i < rows.size(); ++i) all[static_cast<size_t>(i)] = i;
  data::Batch batch;
  rows.Gather(all, &batch);
  std::vector<float> looked_up;
  const float* w = table.value().data();
  for (int64_t id : batch.ids) {
    looked_up.insert(looked_up.end(), w + id * embed_dim,
                     w + (id + 1) * embed_dim);
  }
  return StatsOf(looked_up.data(), static_cast<int64_t>(looked_up.size()))
      .std;
}

void Report(const char* label, core::ArmNet& model, int64_t features,
            const data::Dataset& score_rows) {
  const std::vector<float> logits =
      armor::PredictLogits(model, score_rows, 1024);
  float lo = logits[0], hi = logits[0];
  for (float v : logits) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  armbench::Tracer tracer(true);
  armbench::Result result;
  armbench::ProbeInference(model, features, score_rows, 1024, 5, tracer,
                           &result);
  std::printf("%-8s lookup std %.4f  logits [%.3f, %.3f]", label,
              LookupStd(armbench::EmbeddingTable(model, features),
                        score_rows, model.config().embed_dim),
              lo, hi);
  for (const armbench::Metric& m : result.per_layer) {
    if (m.unit == "ms") std::printf("  %s %.1f", m.name.c_str(), m.value);
  }
  std::printf("%s\n", result.correct ? "" : "  (gate rebuild FAILED)");
  for (const armbench::Metric& m : result.per_layer) {
    if (m.unit == "ms") continue;
    std::printf("         %s %.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = ".bench_build/calibrate";
  if (argc == 3 && std::strcmp(argv[1], "--work-dir") == 0) {
    work_dir = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: armbench_calibrate [--work-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(work_dir);

  // The score workload's vocabulary rows (as for any seed) followed by
  // training, validation and test rows.
  const std::vector<armbench::Column> columns =
      armbench::CriteoColumns(armbench::kScoreCardinalityScale);
  armbench::TableGen gen(columns, 1);
  const int64_t held = kTrainRows / 8;
  const std::string csv = work_dir + "/criteo-calibrate.csv";
  const int64_t vocab_rows =
      armbench::WriteVocabCsv(gen, kTrainRows + 2 * held, csv);
  data::FeatureSpace space;
  StatusOr<data::Dataset> loaded = data::LoadCsvWithVocab(
      csv, armbench::NumericalMask(columns), data::LoadOptions{}, nullptr,
      ',', &space);
  ARMNET_CHECK(loaded.ok()) << loaded.status().message();
  const auto range = [&](int64_t begin, int64_t count) {
    std::vector<int64_t> rows(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      rows[static_cast<size_t>(i)] = begin + i;
    }
    return loaded.value().Subset(rows);
  };
  data::Splits splits;
  splits.train = range(vocab_rows, kTrainRows);
  splits.validation = range(vocab_rows + kTrainRows, held);
  splits.test = range(vocab_rows + kTrainRows + held, held);
  std::filesystem::remove(csv);

  // Rows as the score workload draws them for seed 1.
  armbench::TableGen requests(columns, 1 + 1000);
  std::vector<Cells> cells(3072);
  for (Cells& row : cells) requests.Row(&row);
  const data::Dataset score_rows = armbench::MapRows(space, cells);

  const int64_t features = space.schema().num_features();
  const int fields = static_cast<int>(columns.size());
  std::unique_ptr<core::ArmNet> trained =
      armbench::MakeScoreModel(features, fields);
  Report("init", *trained, features, score_rows);

  armor::TrainConfig config;
  config.max_epochs = 30;
  config.patience = 2;
  config.max_train_seconds = kMaxTrainSeconds;
  config.verbose = true;
  const armor::TrainResult fit = armor::Fit(*trained, splits, config);
  std::printf("trained %d epochs in %.0f s on %lld rows: best val AUC %.4f, "
              "test AUC %.4f%s\n",
              fit.epochs_run, fit.train_seconds,
              static_cast<long long>(kTrainRows), fit.best_validation_auc,
              fit.test.auc, fit.watchdog_fired ? " (stopped by the watchdog)"
                                               : "");
  for (const Variable& p : trained->Parameters()) {
    const Stats s = StatsOf(p.value().data(), p.numel());
    std::printf("  parameter %-18s std %.4f mean %+.4f\n",
                p.shape().ToString().c_str(), s.std, s.mean);
  }
  Report("trained", *trained, features, score_rows);
  const double measured = LookupStd(armbench::EmbeddingTable(*trained,
                                                             features),
                                    score_rows, trained->config().embed_dim);

  // The score workload's model: the initial model with its table drawn at
  // the measured scale.
  std::unique_ptr<core::ArmNet> drawn =
      armbench::MakeScoreModel(features, fields);
  Variable table = armbench::EmbeddingTable(*drawn, features);
  const std::vector<float> weights =
      armbench::DrawNormal(table.numel(), measured, 7);
  std::memcpy(table.mutable_value().data(), weights.data(),
              sizeof(float) * weights.size());
  Report("drawn", *drawn, features, score_rows);
  std::printf("measured lookup std %.4f (kScoreEmbeddingStd is %.4f)\n",
              measured, armbench::kScoreEmbeddingStd);
  return 0;
}
