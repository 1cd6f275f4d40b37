// Workload `score`: bulk scoring with serve::PredictTable over a
// Criteo-layout CSV (13 numerical + 26 categorical columns) through a
// PredictionService with 3 workers and an int8 mmap embedding store
// attached with the default cache setting. Categorical cardinalities are
// raised so that the float32 embedding table (about 9.6 MB) is several
// times a 2 MiB per-core L2.
//
// Why: full batches, long entmax rows (m = 39), CSV parse and map, and a
// gather over a table that does not fit in cache. It measures throughput,
// not latency.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "armor/evaluator.h"
#include "common.h"
#include "core/arm_net.h"
#include "data/loader.h"
#include "nn/embedding_store.h"
#include "nn/serialize.h"
#include "probes.h"
#include "score_model.h"
#include "serve/predict_table.h"
#include "serve/service.h"
#include "tensor/quantized.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace armbench {

namespace {

using namespace armnet;

constexpr int64_t kScoreRows = 3072;
constexpr int kWorkers = 3;
constexpr uint64_t kTableSeed = 7;
// Int8 rows against the float32 forward: the store's per-row scale keeps
// each weight within half a quantization step, and the run record reports
// the largest probability difference seen.
constexpr double kProbabilityTolerance = 1e-4;

// What the benchmark generates once per run, before the timed set-ups.
struct ScoreInputs {
  std::vector<Column> columns;
  std::string vocab_csv;   // every category of every field occurs
  std::string table_path;  // the table to score
  std::vector<Cells> rows;  // its rows, for the reference forward
  // The embedding table, drawn at kScoreEmbeddingStd; at least as many
  // weights as the model's table holds.
  std::vector<float> weights;
};

// What one set-up builds with the program's calls.
struct ScoreState {
  data::FeatureSpace space;
  std::unique_ptr<core::ArmNet> model;
  std::unique_ptr<serve::PredictionService> service;
  std::string model_path;
  std::string store_path;
  double csv_load_s = 0;
  double attach_ms = 0;
};

ScoreInputs Generate(const Args& args) {
  ScoreInputs in;
  in.columns = CriteoColumns(kScoreCardinalityScale);
  TableGen gen(in.columns, args.seed);
  in.vocab_csv = args.work_dir + "/criteo-train.csv";
  WriteVocabCsv(gen, 0, in.vocab_csv);

  // Fresh rows from the same distribution.
  TableGen requests(in.columns, args.seed + 1000);
  in.table_path = args.work_dir + "/score.csv";
  std::ofstream out(in.table_path, std::ios::trunc);
  std::string line;
  for (const Column& c : in.columns) {
    line += (line.empty() ? "" : ",") + c.name;
  }
  out << line << '\n';
  in.rows.resize(kScoreRows);
  for (Cells& cells : in.rows) {
    requests.Row(&cells);
    line.clear();
    for (const std::string& cell : cells) {
      line += (line.empty() ? "" : ",") + cell;
    }
    out << line << '\n';
  }
  ARMNET_CHECK(out.good());

  // One row per category plus the unknown token per categorical field, one
  // per numerical field: an upper bound on the model's table rows. The
  // draws do not depend on the seed, so neither does the model.
  int64_t rows = 0;
  for (const Column& c : in.columns) {
    rows += c.numerical ? 1 : c.cardinality + 1;
  }
  in.weights = DrawNormal(rows * Table3Config().embed_dim, kScoreEmbeddingStd,
                          kTableSeed);
  return in;
}

// The program's set-up: load the vocabulary, build the model and its files,
// start the service and attach the int8 store.
void Setup(const Args& args, const ScoreInputs& in, ScoreState* state) {
  const double load_start = Now();
  StatusOr<data::Dataset> loaded =
      data::LoadCsvWithVocab(in.vocab_csv, NumericalMask(in.columns),
                             data::LoadOptions{}, nullptr, ',', &state->space);
  state->csv_load_s = Now() - load_start;
  ARMNET_CHECK(loaded.ok()) << loaded.status().message();
  const int64_t features = loaded.value().schema().num_features();

  state->model =
      MakeScoreModel(features, static_cast<int>(in.columns.size()));
  Variable table = EmbeddingTable(*state->model, features);
  ARMNET_CHECK_LE(table.numel(), static_cast<int64_t>(in.weights.size()));
  std::memcpy(table.mutable_value().data(), in.weights.data(),
              sizeof(float) * static_cast<size_t>(table.numel()));
  state->model_path = args.work_dir + "/armnet.state";
  ARMNET_CHECK(nn::SaveState(*state->model, state->model_path).ok());
  state->store_path = args.work_dir + "/embedding.store";
  ARMNET_CHECK(nn::SaveEmbeddingStore(
                   *QuantizedTable::Quantize(table.value(), QuantKind::kInt8),
                   state->store_path)
                   .ok());

  serve::ServeOptions options;
  options.num_workers = kWorkers;
  state->service = std::make_unique<serve::PredictionService>(
      state->model.get(), state->space, options);
  const double attach_start = Now();
  const Status attached = state->service->AttachEmbeddingStore(
      state->store_path);
  state->attach_ms = (Now() - attach_start) * 1e3;
  ARMNET_CHECK(attached.ok()) << attached.message();
}

// Reads PredictTable's output; returns false if it is not one scored row
// per input row.
bool ReadScores(const std::string& path, std::vector<double>* probability,
                std::string* why) {
  StatusOr<CsvTable> table = ReadCsv(path, ',', /*has_header=*/true);
  if (!table.ok()) {
    *why = table.status().message();
    return false;
  }
  const auto& rows = table.value().rows;
  if (static_cast<int64_t>(rows.size()) != kScoreRows) {
    *why = std::to_string(rows.size()) + " output rows for " +
           std::to_string(kScoreRows) + " input rows";
    return false;
  }
  probability->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    float p = 0;
    if (rows[i].size() != 4 ||
        rows[i][2] != serve::ServeCodeName(serve::ServeCode::kOk) ||
        !ParseFloat(rows[i][1], &p) || !std::isfinite(p)) {
      *why = "row " + std::to_string(i) + " was not scored";
      return false;
    }
    (*probability)[i] = p;
  }
  return true;
}

// The serve layer's counters over the scoring passes, from counters().
// Returns the mean batch the workers formed.
double ServingLayers(const serve::ServeCounters& after,
                   const serve::ServeCounters& before, Result* result) {
  const double submitted = static_cast<double>(
      std::max<int64_t>(after.submitted - before.submitted, 1));
  const auto ratio = [&](int64_t serve::ServeCounters::*field) {
    return static_cast<double>(after.*field - before.*field) / submitted;
  };
  // Rows that reached a forward, per forward.
  const int64_t forwarded =
      (after.completed_ok - before.completed_ok) +
      (after.degraded_fallback - before.degraded_fallback) +
      (after.degraded_prior - before.degraded_prior) +
      (after.failed - before.failed);
  const double batch_rows =
      static_cast<double>(forwarded) /
      static_cast<double>(std::max<int64_t>(after.batches - before.batches, 1));
  result->Layer("serve.batch_rows_mean", batch_rows, "rows");
  result->Layer("serve.shed_ratio", ratio(&serve::ServeCounters::shed),
                "ratio");
  result->Layer("serve.expired_ratio", ratio(&serve::ServeCounters::expired),
                "ratio");
  result->Layer("serve.overload_ratio",
                ratio(&serve::ServeCounters::rejected_overload), "ratio");
  result->Layer("serve.invalid_ratio",
                ratio(&serve::ServeCounters::rejected_invalid), "ratio");
  result->Layer("serve.oov_fields_per_req",
                ratio(&serve::ServeCounters::oov_fields), "fields");
  return batch_rows;
}

}  // namespace

void RunScore(const Args& args, Tracer& tracer, Result* result) {
  // Peak resident set after each phase, for the run record.
  std::string rss = "score: peak RSS MiB after";
  const auto rss_after = [&](const char* phase) {
    rss += std::string(" ") + phase + " " + std::to_string(PeakRssMb());
  };
  const ScoreInputs inputs = Generate(args);
  rss_after("inputs");
  ScoreState state;
  std::vector<double> csv_load_s;
  std::vector<double> attach_ms;
  const std::vector<double> setup_times = TimeSetup([&] {
    state.service.reset();
    state = ScoreState();
    Setup(args, inputs, &state);
    csv_load_s.push_back(state.csv_load_s);
    attach_ms.push_back(state.attach_ms);
  });
  rss_after("set-ups");
  result->Add("setup_rss_mb", PeakRssMb(), "MiB");
  serve::PredictionService& service = *state.service;
  const serve::ServeCounters before = service.counters();

  // Float32 reference logits, one model copy per thread.
  const int64_t features = state.space.schema().num_features();
  data::Dataset mapped = MapRows(state.space, inputs.rows);
  std::vector<float> reference(static_cast<size_t>(kScoreRows));
  std::vector<std::unique_ptr<core::ArmNet>> copies;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      copies.push_back(MakeScoreModel(features, state.space.num_fields()));
      ARMNET_CHECK(nn::LoadState(*copies.back(), state.model_path).ok());
    }
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        std::vector<int64_t> rows;
        for (int64_t i = t; i < kScoreRows; i += kWorkers) rows.push_back(i);
        const std::vector<float> logits = armor::PredictLogits(
            *copies[static_cast<size_t>(t)], mapped.Subset(rows), 64);
        for (size_t k = 0; k < rows.size(); ++k) {
          reference[static_cast<size_t>(rows[k])] = logits[k];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  rss_after("reference");

  // One untimed pass first, so the first plans are compiled and the buffer
  // pools are filled before timing (the resident set still grows for about
  // 20 passes; see README.md). Then scoring passes over the same table
  // until --seconds have passed (at least three); in a traced run odd
  // passes are traced.
  serve::PredictTableOptions options;
  const std::string out_path = args.work_dir + "/scores.csv";
  ARMNET_CHECK(serve::PredictTable(service, inputs.table_path, out_path,
                                   options)
                   .ok());
  rss_after("first pass");
  std::vector<double> pass_s[2];
  double max_diff = 0;
  const double start = Now();
  for (int pass = 0; pass < 3 || Now() - start < args.seconds; ++pass) {
    const bool traced = tracer.enabled() && pass % 2 == 1;
    serve::PredictTableReport report;
    const double t0 = Now();
    const Status status =
        serve::PredictTable(service, inputs.table_path, out_path, options,
                            &report);
    const double t1 = Now();
    if (traced) tracer.Record("serve.predict_table", t0, t1, pass);
    pass_s[traced].push_back(t1 - t0);
    result->attempted += kScoreRows;
    if (!status.ok()) {
      result->failed += kScoreRows;
      result->Fail("score: PredictTable failed: " + status.message());
      break;
    }
    result->failed += kScoreRows - (report.rows_ok - report.rows_degraded);
    std::vector<double> probability;
    std::string why;
    if (!ReadScores(out_path, &probability, &why)) {
      result->Fail("score: " + why);
      break;
    }
    for (int64_t i = 0; i < kScoreRows; ++i) {
      const double ref =
          1.0 / (1.0 + std::exp(-static_cast<double>(
                           reference[static_cast<size_t>(i)])));
      max_diff = std::max(max_diff,
                          std::fabs(probability[static_cast<size_t>(i)] - ref));
    }
  }
  // How sharp the check is: the share of row pairs whose reference
  // probabilities differ by more than the tolerance, so that scoring one
  // row as the other would fail.
  std::vector<double> ref_p;
  for (float logit : reference) ref_p.push_back(1.0 / (1.0 + std::exp(-logit)));
  std::sort(ref_p.begin(), ref_p.end());
  double close_pairs = 0;
  for (size_t i = 0, j = 0; i < ref_p.size(); ++i) {
    while (ref_p[i] - ref_p[j] > kProbabilityTolerance) ++j;
    close_pairs += static_cast<double>(i - j);
  }
  const double n = static_cast<double>(ref_p.size());
  result->Note("score: reference probabilities span [" +
               std::to_string(ref_p.front()) + ", " +
               std::to_string(ref_p.back()) + "]; " +
               std::to_string(1.0 - close_pairs / (n * (n - 1) / 2)) +
               " of row pairs differ by more than the tolerance");
  if (!(max_diff <= kProbabilityTolerance)) {
    result->Fail("score: a probability differs from the float32 forward by " +
                 std::to_string(max_diff));
  }
  const serve::ServeCounters after = service.counters();
  if (after.Terminal() != after.submitted) {
    result->Fail("score: counters().Terminal() != submitted");
  }
  service.Shutdown();
  rss_after("passes");
  result->Note(rss);

  const std::vector<double>& timed = pass_s[0];
  AddSetup(setup_times, result);
  result->Add("tuples_per_s",
              static_cast<double>(kScoreRows) / Median(timed), "1/s");
  result->Note("score: " + std::to_string(timed.size()) +
               " timed PredictTable passes over " +
               std::to_string(kScoreRows) + " rows, median " +
               std::to_string(Median(timed) * 1e3) + " ms, slowest " +
               std::to_string(Percentile(timed, 1.0) * 1e3) +
               " ms; max |p - p_float32| " + std::to_string(max_diff) +
               "; " + std::to_string(features) + " embedding rows");

  if (tracer.enabled()) {
    const double batch_rows = ServingLayers(after, before, result);
    result->Layer("data.csv_load_s", Median(csv_load_s), "s");
    result->Layer("nn.store_attach_ms", Median(attach_ms), "ms");
    result->Layer("nn.store_bytes_per_row",
                  static_cast<double>(FileBytes(state.store_path)) /
                      static_cast<double>(features),
                  "bytes");
    result->Layer("serve.predict_table_s",
                  Median(tracer.SelfTimesMs("serve.predict_table")) / 1e3,
                  "s");
    result->Layer("trace.overhead.tuples_per_s",
                  Median(pass_s[1]) / Median(timed) - 1.0, "ratio");

    // Layer probes on a float32 copy at the mean batch the workers formed.
    const auto b =
        std::clamp<int64_t>(std::llround(batch_rows), 1, kScoreRows);
    ProbeInference(*copies[0], features, mapped, b, 5, tracer, result);
  }
}

}  // namespace armbench
