// Figure 9 — Impact of a larger input embedding size on ARM-Net+: AUC and
// Logloss as n_e grows on Frappe and MovieLens, plus the storage cost of
// serving each size from a quantized embedding store (DESIGN.md §14):
// bytes/row, dequantize-on-gather latency, and AUC delta vs the float32
// table for fp16 and int8 rows.
//
// Expected shape (paper): performance improves with embedding size
// (0.9800 -> 0.9807 on Frappe, 0.9592 -> 0.9615 on MovieLens at n_e=35).
// Quantized storage: int8 rows cost width+2 bytes (~0.26x float32 at
// n_e=10, less as n_e grows) at |AUC delta| within noise.
//
// Flags: --scale=<f> (default 0.5), --epochs=<n> (default 10),
//        --sizes=<a,b,...> (default 10,15,25,35),
//        --dropout=<f> (default 0.1),
//        --json=<path> for the schema-v1 report.

#include "bench/common.h"

#include "armor/evaluator.h"
#include "nn/embedding.h"
#include "tensor/quantized.h"
#include "util/stopwatch.h"

namespace {

using namespace armnet;

// All Embedding modules of a model (ARM-Net+ has one global table).
std::vector<nn::Embedding*> EmbeddingsOf(models::TabularModel& model) {
  std::vector<nn::Embedding*> found;
  for (nn::Module* m : model.SelfAndDescendants()) {
    if (auto* e = dynamic_cast<nn::Embedding*>(m)) found.push_back(e);
  }
  return found;
}

// Mean milliseconds for one gather of `ids` (a zipf-skewed workload, the
// access shape the synthetic generators produce) from `store`.
double GatherMs(const QuantizedTable& store, const std::vector<int64_t>& ids,
                int reps) {
  Tensor out = Tensor::Zeros(
      Shape({static_cast<int64_t>(ids.size()), store.width()}));
  store.GatherRowsOut(ids, out);  // warm-up, excluded from timing
  Stopwatch timer;
  for (int r = 0; r < reps; ++r) store.GatherRowsOut(ids, out);
  return timer.ElapsedMillis() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace armnet;
  const double scale = FlagDouble(argc, argv, "scale", 0.5);
  const int epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 10));
  const std::string sizes_flag =
      FlagValue(argc, argv, "sizes", "10,15,25,35");
  // Larger embeddings overfit the scaled-down datasets without
  // regularization (the paper's full-size runs don't have this problem);
  // a light dropout keeps the capacity sweep meaningful.
  const float dropout =
      static_cast<float>(FlagDouble(argc, argv, "dropout", 0.1));

  const std::string json_path = FlagValue(argc, argv, "json", "");

  bench::BenchReport report("fig9_embedding");
  report.ConfigDouble("scale", scale);
  report.ConfigInt("epochs", epochs);
  report.ConfigString("sizes", sizes_flag);
  report.ConfigDouble("dropout", dropout);

  const std::vector<int64_t> sizes = bench::ParseIntList("sizes", sizes_flag);

  std::printf("=== Figure 9: ARM-Net+ with larger embedding sizes "
              "(scale=%.2f) ===\n",
              scale);
  for (const std::string& dataset_name :
       {std::string("frappe"), std::string("movielens")}) {
    bench::PreparedData prepared =
        bench::Prepare(data::PresetByName(dataset_name, scale), 42);
    std::printf("\n--- %s ---\n%6s %8s %8s %9s\n", dataset_name.c_str(),
                "n_e", "AUC", "Logloss", "Param");
    for (int64_t ne : sizes) {
      models::FactoryConfig factory;
      factory.embed_dim = ne;
      factory.dropout = dropout;
      factory.arm = bench::DefaultArmConfig(dataset_name);
      factory.arm.embed_dim = ne;
      factory.arm.dropout = dropout;
      armor::TrainConfig train;
      train.max_epochs = epochs;
      train.patience = 3;
      std::unique_ptr<models::TabularModel> model;
      bench::FitOutcome outcome = bench::FitBest(
          "ARM-Net+", prepared, factory, train, {3e-3f}, /*seed=*/7, &model);
      std::printf("%6lld %8.4f %8.4f %9s\n", static_cast<long long>(ne),
                  outcome.result.test.auc, outcome.result.test.logloss,
                  bench::HumanCount(outcome.parameters).c_str());
      std::fflush(stdout);
      bench::BenchRow& row =
          report.AddRow(dataset_name + "/ne" + std::to_string(ne));
      row.counters.emplace_back("embed_dim", ne);
      row.counters.emplace_back("parameters", outcome.parameters);
      row.metrics.emplace_back("test_auc", outcome.result.test.auc);
      row.metrics.emplace_back("test_logloss", outcome.result.test.logloss);

      // Quantized-storage sweep on the trained model: attach each storage
      // kind and re-evaluate the test split through the no-grad gather
      // route, so the AUC delta measures exactly what serving would see.
      std::vector<nn::Embedding*> embeddings = EmbeddingsOf(*model);
      ARMNET_CHECK(!embeddings.empty());
      const int64_t rows = embeddings[0]->num_rows();
      Rng workload_rng(13);
      Rng::ZipfTable zipf(rows, /*s=*/1.05);
      std::vector<int64_t> gather_ids(4096);
      for (int64_t& id : gather_ids) id = zipf.Sample(workload_rng);

      const double auc_f32 = armor::Evaluate(
          *model, prepared.splits.test).auc;
      std::printf("%6s %10s %12s %12s %14s\n", "", "kind", "bytes/row",
                  "gather_ms", "auc_delta_f32");
      for (QuantKind kind :
           {QuantKind::kFloat32, QuantKind::kFloat16, QuantKind::kInt8}) {
        std::vector<std::shared_ptr<const QuantizedTable>> stores;
        for (nn::Embedding* e : embeddings) {
          std::shared_ptr<const QuantizedTable> store =
              QuantizedTable::Quantize(e->table().value(), kind);
          e->AttachStore(store);
          stores.push_back(std::move(store));
        }
        const double auc = kind == QuantKind::kFloat32
                               ? auc_f32
                               : armor::Evaluate(*model,
                                                 prepared.splits.test).auc;
        const double gather_ms = GatherMs(*stores[0], gather_ids, /*reps=*/50);
        for (nn::Embedding* e : embeddings) e->DetachStore();

        const double delta = auc - auc_f32;
        std::printf("%6s %10s %12lld %12.4f %14.5f\n", "",
                    QuantKindName(kind),
                    static_cast<long long>(stores[0]->bytes_per_row()),
                    gather_ms, delta);
        std::fflush(stdout);
        bench::BenchRow& qrow =
            report.AddRow(dataset_name + "/ne" + std::to_string(ne) + "/" +
                          QuantKindName(kind));
        qrow.counters.emplace_back("embed_dim", ne);
        qrow.counters.emplace_back("rows", rows);
        qrow.counters.emplace_back("bytes_per_row",
                                   stores[0]->bytes_per_row());
        qrow.metrics.emplace_back("gather_ms", gather_ms);
        qrow.metrics.emplace_back("test_auc", auc);
        qrow.metrics.emplace_back("auc_delta_f32", delta);
      }
    }
  }
  std::printf("\npaper-reference: AUC rises with n_e (Frappe 0.9800 at 10 "
              "-> 0.9807 at 35)\n");
  report.WriteIfRequested(json_path);
  return 0;
}
