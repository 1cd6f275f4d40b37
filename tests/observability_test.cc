// Tests for the observability layer (DESIGN.md §10): the JSON emitter,
// evaluator divergence/telemetry fields, and the trainer's per-epoch JSONL
// records.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "armor/evaluator.h"
#include "armor/trainer.h"
#include "core/arm_net.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "util/json.h"

namespace armnet {
namespace {

// --- JsonWriter --------------------------------------------------------

TEST(JsonWriterTest, NestedContainersWithAutomaticCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("epoch").Int(3);
  w.Key("name").String("adult");
  w.Key("ok").Bool(true);
  w.Key("none").Null();
  w.Key("history").BeginArray().Double(0.5).Double(0.25).EndArray();
  w.Key("tape").BeginObject().Key("nodes").Int(0).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"epoch\":3,\"name\":\"adult\",\"ok\":true,\"none\":null,"
            "\"history\":[0.5,0.25],\"tape\":{\"nodes\":0}}");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");

  JsonWriter w;
  w.BeginObject();
  w.Key("msg").String("diverged: loss=\"nan\"\n");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"msg\":\"diverged: loss=\\\"nan\\\"\\n\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesSerializeAsNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity());
  w.Double(1.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

// --- Evaluator telemetry and divergence reporting ----------------------

data::SyntheticDataset ObsData() {
  data::SyntheticSpec spec;
  spec.name = "obs";
  spec.fields = {{"f0", data::FieldType::kCategorical, 8},
                 {"f1", data::FieldType::kCategorical, 7},
                 {"f2", data::FieldType::kCategorical, 6}};
  spec.num_tuples = 400;
  spec.interactions = {{{0, 1}, 2.0f}};
  spec.noise_stddev = 0.2f;
  spec.seed = 31;
  return data::GenerateSynthetic(spec);
}

core::ArmNetConfig ObsModelConfig() {
  core::ArmNetConfig config;
  config.embed_dim = 4;
  config.num_heads = 1;
  config.neurons_per_head = 4;
  config.hidden = {8};
  return config;
}

TEST(EvaluatorTest, HealthyModelReportsEvalModeTelemetry) {
  const data::SyntheticDataset synthetic = ObsData();
  Rng rng(3);
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), ObsModelConfig(), rng);
  const armor::EvalResult result =
      armor::Evaluate(model, synthetic.dataset, /*batch_size=*/128);
  EXPECT_EQ(result.non_finite_logits, 0);
  EXPECT_TRUE(std::isfinite(result.auc));
  EXPECT_TRUE(std::isfinite(result.logloss));
  // Inference runs under NoGradGuard: nothing may hit the tape.
  EXPECT_EQ(result.tape_nodes_recorded, 0);
  EXPECT_GT(result.tape_nodes_elided, 0);
}

TEST(EvaluatorTest, DivergedModelReportsNaNMetricsInsteadOfAborting) {
  const data::SyntheticDataset synthetic = ObsData();
  Rng rng(4);
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), ObsModelConfig(), rng);
  // Poison the output head the way a diverged update would.
  std::vector<Variable> params = model.Parameters();
  ASSERT_FALSE(params.empty());
  Tensor& head = params.back().mutable_value();
  for (int64_t i = 0; i < head.numel(); ++i) {
    head[i] = std::numeric_limits<float>::quiet_NaN();
  }
  const armor::EvalResult result =
      armor::Evaluate(model, synthetic.dataset, /*batch_size=*/128);
  EXPECT_GT(result.non_finite_logits, 0);
  EXPECT_TRUE(std::isnan(result.auc));
  EXPECT_TRUE(std::isnan(result.logloss));
  EXPECT_TRUE(std::isnan(result.accuracy));
  EXPECT_TRUE(std::isnan(result.rmse));
}

// --- Trainer epoch telemetry -------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TrainerTelemetryTest, WritesOneJsonlRecordPerEpoch) {
  const data::SyntheticDataset synthetic = ObsData();
  Rng split_rng(1);
  const data::Splits splits =
      data::SplitDataset(synthetic.dataset, split_rng);

  const std::string path =
      ::testing::TempDir() + "/obs_telemetry/epochs.jsonl";
  std::filesystem::remove_all(::testing::TempDir() + "/obs_telemetry");

  armor::TrainConfig config;
  config.max_epochs = 3;
  config.batch_size = 64;
  config.learning_rate = 5e-3f;
  config.patience = 50;
  config.seed = 5;
  config.telemetry_path = path;
  Rng rng(21);
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), ObsModelConfig(), rng);
  const armor::TrainResult result = armor::Fit(model, splits, config);
  ASSERT_EQ(result.epochs_run, 3);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(i + 1) + ","),
              std::string::npos);
    EXPECT_NE(line.find("\"train_loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"grad_norm_mean\":"), std::string::npos);
    EXPECT_NE(line.find("\"val_auc\":"), std::string::npos);
    EXPECT_NE(line.find("\"non_finite_logits\":0"), std::string::npos);
    EXPECT_NE(line.find("\"epoch_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"tape\":{\"train_nodes_recorded\":"),
              std::string::npos);
    EXPECT_NE(line.find("\"incidents\":["), std::string::npos);
  }
}

TEST(TrainerTelemetryTest, CheckpointDirImpliesEpochsJsonl) {
  const data::SyntheticDataset synthetic = ObsData();
  Rng split_rng(1);
  const data::Splits splits =
      data::SplitDataset(synthetic.dataset, split_rng);

  const std::string dir = ::testing::TempDir() + "/obs_ckpt_telemetry";
  std::filesystem::remove_all(dir);

  armor::TrainConfig config;
  config.max_epochs = 2;
  config.batch_size = 64;
  config.learning_rate = 5e-3f;
  config.patience = 50;
  config.seed = 5;
  config.checkpoint_dir = dir;
  Rng rng(22);
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), ObsModelConfig(), rng);
  const armor::TrainResult result = armor::Fit(model, splits, config);
  ASSERT_EQ(result.epochs_run, 2);
  EXPECT_EQ(ReadLines(dir + "/epochs.jsonl").size(), 2u);
}

}  // namespace
}  // namespace armnet
