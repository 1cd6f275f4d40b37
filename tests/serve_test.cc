// Tests for the serving layer (DESIGN.md §11, §13): feature-space artifact
// round-trips, admission control, deadlines on a virtual clock, the
// circuit-breaker cycle, graceful degradation, adaptive batching, load
// shedding, readiness hysteresis, warm-standby RCU reload, multi-worker
// accounting, the shutdown race, and the end-to-end train → persist → serve
// demo.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "armor/evaluator.h"
#include "armor/trainer.h"
#include "core/arm_net.h"
#include "data/feature_space.h"
#include "data/loader.h"
#include "data/split.h"
#include "models/lr.h"
#include "nn/embedding.h"
#include "nn/embedding_store.h"
#include "nn/serialize.h"
#include "tensor/quantized.h"
#include "serve/batch_policy.h"
#include "serve/service.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace armnet {
namespace {

using data::FeatureSpace;
using data::LoadCsvWithVocab;
using data::LoadFeatureSpace;
using data::MappedRow;
using data::SaveFeatureSpace;
using serve::CircuitBreaker;
using serve::PredictionService;
using serve::PredictResult;
using serve::ServeCode;
using serve::ServeCodeName;
using serve::ServeOptions;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Writes a small train CSV (categorical city + numerical temp) and loads it
// with its feature space. Labels: sf rows positive.
void BuildSpace(const std::string& tag, data::Dataset* dataset,
                FeatureSpace* space) {
  const std::string path = ::testing::TempDir() + "/" + tag + ".csv";
  ASSERT_TRUE(WriteLines(path, {"label,city,temp", "1,sf,10", "0,nyc,30",
                                "1,sf,20"})
                  .ok());
  StatusOr<data::Dataset> result = LoadCsvWithVocab(
      path, {false, true}, data::LoadOptions{}, nullptr, ',', space);
  ASSERT_TRUE(result.ok()) << result.status().message();
  *dataset = std::move(result).value();
}

void FillParams(models::TabularModel& model, float value) {
  std::vector<Variable> params = model.Parameters();
  for (Variable& p : params) {
    Tensor& t = p.mutable_value();
    std::fill(t.data(), t.data() + t.numel(), value);
  }
}

void PoisonParams(models::TabularModel& model) {
  FillParams(model, std::numeric_limits<float>::quiet_NaN());
}

// --- Feature-space mapping ---------------------------------------------------

TEST(FeatureSpaceTest, RoundTripReproducesTrainingMapping) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("fs_roundtrip", &dataset, &space);
  ASSERT_EQ(space.num_fields(), 2);
  EXPECT_EQ(space.schema().num_features(),
            dataset.schema().num_features());
  EXPECT_NEAR(space.train_positive_rate(), 2.0 / 3.0, 1e-9);

  // Mapping the raw training rows must reproduce the dataset exactly.
  const std::vector<std::vector<std::string>> rows = {
      {"sf", "10"}, {"nyc", "30"}, {"sf", "20"}};
  for (size_t r = 0; r < rows.size(); ++r) {
    MappedRow mapped;
    ASSERT_TRUE(space.MapRow(rows[r], &mapped).ok());
    EXPECT_EQ(mapped.oov_fields, 0);
    EXPECT_EQ(mapped.clamped_fields, 0);
    for (int f = 0; f < 2; ++f) {
      EXPECT_EQ(mapped.ids[static_cast<size_t>(f)],
                dataset.id_at(static_cast<int64_t>(r), f));
      EXPECT_FLOAT_EQ(mapped.values[static_cast<size_t>(f)],
                      dataset.value_at(static_cast<int64_t>(r), f));
    }
  }

  // Persist + reload; the reloaded space maps identically.
  const std::string path = ::testing::TempDir() + "/fs_roundtrip.artifact";
  ASSERT_TRUE(SaveFeatureSpace(space, path).ok());
  StatusOr<FeatureSpace> loaded = LoadFeatureSpace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_NEAR(loaded.value().train_positive_rate(), 2.0 / 3.0, 1e-9);
  for (const auto& row : rows) {
    MappedRow a;
    MappedRow b;
    ASSERT_TRUE(space.MapRow(row, &a).ok());
    ASSERT_TRUE(loaded.value().MapRow(row, &b).ok());
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.values, b.values);
  }
}

TEST(FeatureSpaceTest, OovMapsToReservedUnkAndClampsRange) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("fs_oov", &dataset, &space);

  // Unseen city -> the reserved UNK id (local 0 = the field's offset).
  MappedRow mapped;
  ASSERT_TRUE(space.MapRow({"tokyo", "15"}, &mapped).ok());
  EXPECT_EQ(mapped.oov_fields, 1);
  EXPECT_EQ(mapped.ids[0], space.schema().offset(0) + data::kUnkLocalId);

  // Out-of-range temp clamps to the train-time extremes.
  MappedRow low;
  MappedRow lo_edge;
  ASSERT_TRUE(space.MapRow({"sf", "-100"}, &low).ok());
  ASSERT_TRUE(space.MapRow({"sf", "10"}, &lo_edge).ok());
  EXPECT_EQ(low.clamped_fields, 1);
  EXPECT_FLOAT_EQ(low.values[1], lo_edge.values[1]);
  MappedRow high;
  MappedRow hi_edge;
  ASSERT_TRUE(space.MapRow({"sf", "1e6"}, &high).ok());
  ASSERT_TRUE(space.MapRow({"sf", "30"}, &hi_edge).ok());
  EXPECT_EQ(high.clamped_fields, 1);
  EXPECT_FLOAT_EQ(high.values[1], hi_edge.values[1]);
}

TEST(FeatureSpaceTest, MapRowRejectsMalformedInput) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("fs_invalid", &dataset, &space);
  MappedRow mapped;
  EXPECT_FALSE(space.MapRow({"sf"}, &mapped).ok());              // arity
  EXPECT_FALSE(space.MapRow({"sf", "warm"}, &mapped).ok());      // parse
  EXPECT_FALSE(space.MapRow({"sf", "10", "x"}, &mapped).ok());   // arity
}

TEST(FeatureSpaceTest, ArtifactRejectsCorruptionAndKindMismatch) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("fs_corrupt", &dataset, &space);
  const std::string path = ::testing::TempDir() + "/fs_corrupt.artifact";
  ASSERT_TRUE(SaveFeatureSpace(space, path).ok());

  // Bit flip in the payload -> CRC failure.
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteAll(path + ".bad", bytes);
  EXPECT_FALSE(LoadFeatureSpace(path + ".bad").ok());

  // A model-state file is not a serving artifact (kind mismatch).
  Rng rng(1);
  models::Lr model(space.schema().num_features(), rng);
  const std::string model_path = ::testing::TempDir() + "/fs_corrupt.state";
  ASSERT_TRUE(nn::SaveState(model, model_path).ok());
  StatusOr<FeatureSpace> wrong = LoadFeatureSpace(model_path);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().message().find("kind"), std::string::npos);
}

// --- Circuit breaker ---------------------------------------------------------

TEST(CircuitBreakerTest, OpenHalfOpenCloseCycle) {
  VirtualClock clock;
  CircuitBreaker::Options options;
  options.open_after = 2;
  options.cooldown_seconds = 1.0;
  options.half_open_probes = 1;
  CircuitBreaker breaker(options, &clock);

  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());

  // Cooldown elapses on the virtual clock -> half-open probe allowed.
  clock.Advance(1.5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());

  // A failed probe re-opens with a fresh cooldown.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(0.5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // A successful probe closes it.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

// --- Adaptive batch policy ---------------------------------------------------

serve::AdaptiveBatchPolicy::Options SmallPolicyOptions() {
  serve::AdaptiveBatchPolicy::Options options;
  options.latency_budget_seconds = 0.1;
  options.max_wait_seconds = 0.002;
  options.step_seconds = 0.0005;
  options.window = 8;
  options.min_samples = 4;
  return options;
}

TEST(AdaptiveBatchPolicyTest, ColdStartDrainsImmediately) {
  serve::AdaptiveBatchPolicy policy(SmallPolicyOptions());
  EXPECT_DOUBLE_EQ(policy.CurrentWaitSeconds(), 0.0);
  for (int i = 0; i < 3; ++i) policy.RecordLatency(0.001);
  // Below min_samples: no evidence, no speculative waiting.
  EXPECT_DOUBLE_EQ(policy.CurrentWaitSeconds(), 0.0);
}

TEST(AdaptiveBatchPolicyTest, GrowsAdditivelyUnderHeadroomUpToCap) {
  serve::AdaptiveBatchPolicy policy(SmallPolicyOptions());
  // Calm traffic: p99 (1ms) is far under grow_headroom * budget (50ms), so
  // every sample past min_samples adds one step until the cap.
  for (int i = 0; i < 8; ++i) policy.RecordLatency(0.001);
  EXPECT_DOUBLE_EQ(policy.CurrentWaitSeconds(), 0.002);  // capped at max
  EXPECT_EQ(policy.recorded(), 8);
}

TEST(AdaptiveBatchPolicyTest, CollapsesToZeroUnderPressure) {
  serve::AdaptiveBatchPolicy policy(SmallPolicyOptions());
  for (int i = 0; i < 8; ++i) policy.RecordLatency(0.001);
  ASSERT_GT(policy.CurrentWaitSeconds(), 0.0);
  // Two slow completions push the windowed p99 (window 8, idx 6) past
  // collapse_headroom * budget = 80ms: multiplicative decrease to zero.
  policy.RecordLatency(0.09);
  policy.RecordLatency(0.09);
  EXPECT_GT(policy.WindowP99Seconds(), 0.08);
  EXPECT_DOUBLE_EQ(policy.CurrentWaitSeconds(), 0.0);
}

// --- Prediction service ------------------------------------------------------

// A small instance of the paper's model for the serving tests.
core::ArmNetConfig SmallArmNetConfig() {
  core::ArmNetConfig config;
  config.embed_dim = 4;
  config.num_heads = 2;
  config.neurons_per_head = 4;
  config.hidden = {8};
  return config;
}

enum class ModelKind { kLr, kArmNet };

const char* ModelKindName(ModelKind kind) {
  return kind == ModelKind::kLr ? "lr" : "armnet";
}

struct ServiceFixture {
  data::Dataset dataset;
  FeatureSpace space;
  Rng rng{7};
  std::unique_ptr<models::TabularModel> model;
  VirtualClock clock;

  explicit ServiceFixture(const std::string& tag,
                          ModelKind kind = ModelKind::kLr) {
    BuildSpace(tag, &dataset, &space);
    if (kind == ModelKind::kLr) {
      model = std::make_unique<models::Lr>(space.schema().num_features(), rng);
    } else {
      model = std::make_unique<core::ArmNet>(space.schema().num_features(),
                                             space.num_fields(),
                                             SmallArmNetConfig(), rng);
    }
    FillParams(*model, 0.0f);  // finite, input-independent logits
  }

  ServeOptions ManualOptions() const {
    ServeOptions options;
    options.start_worker = false;
    return options;
  }
};

TEST(PredictionServiceTest, InvalidRequestsRejectedSynchronously) {
  ServiceFixture fx("svc_invalid");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  auto bad_arity = service.Submit({"sf"});
  ASSERT_TRUE(bad_arity->done());
  EXPECT_EQ(bad_arity->Wait().code, ServeCode::kInvalidArgument);
  auto bad_cell = service.Submit({"sf", "warm"});
  ASSERT_TRUE(bad_cell->done());
  EXPECT_EQ(bad_cell->Wait().code, ServeCode::kInvalidArgument);
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 2);
  EXPECT_EQ(counters.rejected_invalid, 2);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictionServiceTest, OverloadRejectsAtCapacity) {
  ServiceFixture fx("svc_overload");
  ServeOptions options = fx.ManualOptions();
  options.queue_capacity = 4;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);

  std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(service.Submit({"sf", "15"}));
  // First 4 admitted and pending; the rest rejected immediately.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(tickets[i]->done());
  for (int i = 4; i < 6; ++i) {
    ASSERT_TRUE(tickets[i]->done());
    EXPECT_EQ(tickets[i]->Wait().code, ServeCode::kOverloaded);
  }
  EXPECT_FALSE(service.Ready());  // queue saturated

  while (service.DrainOnce() > 0) {
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tickets[i]->Wait().code, ServeCode::kOk);
    EXPECT_TRUE(std::isfinite(tickets[i]->Wait().logit));
  }
  EXPECT_TRUE(service.Ready());
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 6);
  EXPECT_EQ(counters.rejected_overload, 2);
  EXPECT_EQ(counters.completed_ok, 4);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictionServiceTest, DeadlineExpiryOnVirtualClock) {
  ServiceFixture fx("svc_deadline");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  // Pre-expired at submission.
  auto dead_on_arrival = service.Submit({"sf", "15"}, 0.0);
  ASSERT_TRUE(dead_on_arrival->done());
  EXPECT_EQ(dead_on_arrival->Wait().code, ServeCode::kDeadlineExceeded);

  // Expires while queued: the clock advances past the deadline before the
  // drain, so the request is never forwarded.
  auto queued = service.Submit({"sf", "15"}, 0.05);
  fx.clock.Advance(0.1);
  EXPECT_EQ(service.DrainOnce(), 1);
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->Wait().code, ServeCode::kDeadlineExceeded);

  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.expired, 2);
  EXPECT_EQ(counters.batches, 0);  // nothing reached the model
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictionServiceTest, MicroBatchesRespectMaxBatchSize) {
  ServiceFixture fx("svc_batch");
  ServeOptions options = fx.ManualOptions();
  options.max_batch_size = 2;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);
  std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(service.Submit({i % 2 == 0 ? "sf" : "nyc", "12"}));
  }
  EXPECT_EQ(service.DrainOnce(), 2);
  EXPECT_EQ(service.DrainOnce(), 2);
  EXPECT_EQ(service.DrainOnce(), 1);
  EXPECT_EQ(service.DrainOnce(), 0);
  for (const auto& t : tickets) {
    EXPECT_EQ(t->Wait().code, ServeCode::kOk);
    EXPECT_FLOAT_EQ(t->Wait().logit, 0.0f);  // all-zero LR
    EXPECT_FLOAT_EQ(t->Wait().probability, 0.5f);
  }
  EXPECT_EQ(service.counters().batches, 3);
}

// The breaker cases run on both the baseline and the paper's ARM-Net: a
// NaN-poisoned ARM-Net must degrade and trip the breaker, never abort.
TEST(PredictionServiceTest, DegradesToPriorOnNonFiniteLogits) {
  for (const ModelKind kind : {ModelKind::kLr, ModelKind::kArmNet}) {
    SCOPED_TRACE(ModelKindName(kind));
    ServiceFixture fx(std::string("svc_prior_") + ModelKindName(kind), kind);
    ServeOptions options = fx.ManualOptions();
    options.breaker.open_after = 1;
    PredictionService service(fx.model.get(), fx.space, options, &fx.clock);
    PoisonParams(*fx.model);

    auto ticket = service.Submit({"sf", "15"});
    EXPECT_EQ(service.DrainOnce(), 1);
    const PredictResult& result = ticket->Wait();
    EXPECT_EQ(result.code, ServeCode::kOk);
    EXPECT_TRUE(result.degraded);
    // Prior logit: log(p / (1-p)) with p = 2/3.
    EXPECT_NEAR(result.logit, std::log(2.0), 1e-5);
    EXPECT_TRUE(std::isfinite(result.probability));

    EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
    EXPECT_FALSE(service.Ready());
    EXPECT_EQ(service.counters().degraded_prior, 1);
    EXPECT_FALSE(service.incidents().empty());
  }
}

TEST(PredictionServiceTest, BreakerOpenSkipsModelThenRecovers) {
  for (const ModelKind kind : {ModelKind::kLr, ModelKind::kArmNet}) {
    SCOPED_TRACE(ModelKindName(kind));
    ServiceFixture fx(std::string("svc_breaker_") + ModelKindName(kind),
                      kind);
    ServeOptions options = fx.ManualOptions();
    options.breaker.open_after = 1;
    options.breaker.cooldown_seconds = 1.0;
    PredictionService service(fx.model.get(), fx.space, options, &fx.clock);
    PoisonParams(*fx.model);

    // First request trips the breaker (one forward attempt).
    service.Submit({"sf", "15"});
    service.DrainOnce();
    EXPECT_EQ(service.counters().batches, 1);
    EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);

    // While open, requests degrade without touching the model.
    auto shielded = service.Submit({"nyc", "20"});
    service.DrainOnce();
    EXPECT_EQ(shielded->Wait().code, ServeCode::kOk);
    EXPECT_TRUE(shielded->Wait().degraded);
    EXPECT_EQ(service.counters().batches, 1);  // unchanged

    // Cooldown elapses; the model is healthy again; the probe closes it.
    fx.clock.Advance(1.5);
    FillParams(*fx.model, 0.0f);
    auto probe = service.Submit({"sf", "15"});
    service.DrainOnce();
    EXPECT_EQ(probe->Wait().code, ServeCode::kOk);
    EXPECT_FALSE(probe->Wait().degraded);
    EXPECT_TRUE(std::isfinite(probe->Wait().logit));
    EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(service.counters().Terminal(), service.counters().submitted);
  }
}

TEST(PredictionServiceTest, FallbackModelServesWhenPrimaryFails) {
  ServiceFixture fx("svc_fallback");
  Rng rng(11);
  models::Lr fallback(fx.space.schema().num_features(), rng);
  FillParams(fallback, 0.0f);
  ServeOptions options = fx.ManualOptions();
  options.breaker.open_after = 1;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock,
                            &fallback);
  PoisonParams(*fx.model);

  auto ticket = service.Submit({"sf", "15"});
  service.DrainOnce();
  const PredictResult& result = ticket->Wait();
  EXPECT_EQ(result.code, ServeCode::kOk);
  EXPECT_TRUE(result.degraded);
  EXPECT_FLOAT_EQ(result.logit, 0.0f);  // the all-zero fallback answered
  EXPECT_EQ(service.counters().degraded_fallback, 1);
  EXPECT_EQ(service.counters().degraded_prior, 0);
}

TEST(PredictionServiceTest, HotReloadSwapsWeightsAtomically) {
  ServiceFixture fx("svc_reload");
  ServeOptions options = fx.ManualOptions();
  options.breaker.open_after = 1;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);

  // Persist the healthy weights, then break the live model.
  const std::string good = ::testing::TempDir() + "/svc_reload.state";
  ASSERT_TRUE(nn::SaveState(*fx.model, good).ok());
  PoisonParams(*fx.model);
  auto degraded = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_TRUE(degraded->Wait().degraded);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);

  // A corrupt file is rejected whole: old (poisoned) model keeps serving,
  // the incident is recorded, the breaker stays open.
  std::string bytes = ReadAll(good);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string bad = good + ".corrupt";
  WriteAll(bad, bytes);
  EXPECT_FALSE(service.ReloadModel(bad).ok());
  EXPECT_EQ(service.counters().reloads_rejected, 1);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
  ASSERT_FALSE(service.incidents().empty());
  EXPECT_NE(service.incidents().back().find("reload rejected"),
            std::string::npos);

  // The good file swaps the weights and resets the breaker.
  ASSERT_TRUE(service.ReloadModel(good).ok());
  EXPECT_EQ(service.counters().reloads_ok, 1);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);
  auto healthy = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_EQ(healthy->Wait().code, ServeCode::kOk);
  EXPECT_FALSE(healthy->Wait().degraded);
  EXPECT_FLOAT_EQ(healthy->Wait().logit, 0.0f);
}

TEST(PredictionServiceTest, BackgroundWorkerServesBlockingPredict) {
  ServiceFixture fx("svc_worker");
  ServeOptions options;
  options.start_worker = true;
  options.batch_wait_seconds = 0.001;
  // Real clock: the worker thread paces itself with timed waits.
  PredictionService service(fx.model.get(), fx.space, options);
  EXPECT_TRUE(service.Alive());
  for (int i = 0; i < 8; ++i) {
    const PredictResult result =
        service.Predict({i % 2 == 0 ? "sf" : "tokyo", "18"});
    EXPECT_EQ(result.code, ServeCode::kOk);
    EXPECT_TRUE(std::isfinite(result.logit));
  }
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 8);
  EXPECT_EQ(counters.completed_ok, 8);
  EXPECT_EQ(counters.oov_fields, 4);  // the "tokyo" rows
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictionServiceTest, ShutdownCompletesQueuedRequests) {
  ServiceFixture fx("svc_shutdown");
  auto service = std::make_unique<PredictionService>(
      fx.model.get(), fx.space, fx.ManualOptions(), &fx.clock);
  auto ticket = service->Submit({"sf", "15"});
  EXPECT_FALSE(ticket->done());
  service.reset();  // destructor flushes the queue
  ASSERT_TRUE(ticket->done());
  EXPECT_EQ(ticket->Wait().code, ServeCode::kUnavailable);
}

TEST(PredictionServiceTest, ShedsNewestDeadlineAboveWatermark) {
  ServiceFixture fx("svc_shed");
  ServeOptions options = fx.ManualOptions();
  options.queue_capacity = 8;
  options.shed_watermark = 2;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);

  auto relaxed = service.Submit({"sf", "15"}, 30.0);   // most slack
  auto urgent = service.Submit({"nyc", "20"}, 5.0);
  auto middle = service.Submit({"sf", "10"}, 10.0);    // crosses watermark
  // The eviction picks the request with the most deadline remaining — the
  // urgent ones keep their place.
  ASSERT_TRUE(relaxed->done());
  EXPECT_EQ(relaxed->Wait().code, ServeCode::kOverloaded);
  EXPECT_NE(relaxed->Wait().message.find("shed"), std::string::npos);
  EXPECT_FALSE(urgent->done());
  EXPECT_FALSE(middle->done());
  EXPECT_TRUE(service.Ready());  // shedding is not saturation

  while (service.DrainOnce() > 0) {
  }
  EXPECT_EQ(urgent->Wait().code, ServeCode::kOk);
  EXPECT_EQ(middle->Wait().code, ServeCode::kOk);
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 3);
  EXPECT_EQ(counters.shed, 1);
  EXPECT_EQ(counters.completed_ok, 2);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictionServiceTest, ReadyHysteresisHoldsUntilLowWatermark) {
  ServiceFixture fx("svc_hysteresis");
  ServeOptions options = fx.ManualOptions();
  options.queue_capacity = 4;
  options.ready_low_watermark = 2;
  options.max_batch_size = 1;  // drain one request per DrainOnce
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);

  for (int i = 0; i < 4; ++i) service.Submit({"sf", "15"});
  EXPECT_FALSE(service.Ready());  // saturated at capacity
  EXPECT_EQ(service.DrainOnce(), 1);
  // Queue at 3: below capacity but above the low watermark — a service that
  // flapped ready here would re-admit straight back into saturation.
  EXPECT_FALSE(service.Ready());
  EXPECT_EQ(service.DrainOnce(), 1);
  EXPECT_TRUE(service.Ready());  // drained to the low watermark (2)
  while (service.DrainOnce() > 0) {
  }
  EXPECT_TRUE(service.Ready());
}

TEST(PredictionServiceTest, HalfOpenBreakerIsNotReady) {
  ServiceFixture fx("svc_halfopen");
  ServeOptions options = fx.ManualOptions();
  options.breaker.open_after = 1;
  options.breaker.cooldown_seconds = 1.0;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);
  PoisonParams(*fx.model);
  service.Submit({"sf", "15"});
  service.DrainOnce();
  ASSERT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(service.Ready());

  // Cooldown elapses: half-open is still "recovering", not "ready" — a load
  // balancer should not route full traffic at a service that is probing.
  fx.clock.Advance(1.5);
  ASSERT_EQ(service.breaker().state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(service.Ready());

  // A healthy probe closes the breaker; readiness returns.
  FillParams(*fx.model, 0.0f);
  auto probe = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_EQ(probe->Wait().code, ServeCode::kOk);
  ASSERT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(service.Ready());
}

TEST(PredictionServiceTest, LatencyMeasuredOnServiceClock) {
  ServiceFixture fx("svc_latency");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  auto served = service.Submit({"sf", "15"}, 5.0);
  fx.clock.Advance(0.25);
  service.DrainOnce();
  EXPECT_EQ(served->Wait().code, ServeCode::kOk);
  EXPECT_NEAR(served->Wait().latency_seconds, 0.25, 1e-9);

  // Terminal rejections carry their queue dwell time too.
  auto expired = service.Submit({"nyc", "20"}, 0.1);
  fx.clock.Advance(0.2);
  service.DrainOnce();
  EXPECT_EQ(expired->Wait().code, ServeCode::kDeadlineExceeded);
  EXPECT_NEAR(expired->Wait().latency_seconds, 0.2, 1e-9);

  // Completed latencies feed the adaptive-batching controller.
  EXPECT_EQ(service.batch_policy().recorded(), 1);
}

TEST(PredictionServiceTest, WarmStandbyReloadNeverTouchesActiveCopy) {
  ServiceFixture fx("svc_standby");
  Rng rng(21);
  models::Lr standby(fx.space.schema().num_features(), rng);
  FillParams(standby, 9.0f);  // sentinel: must be overwritten by the stage
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr, &standby);

  auto before = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_FLOAT_EQ(before->Wait().logit, 0.0f);  // all-zero active copy

  // Weights that produce a different logit, persisted for reload.
  models::Lr donor(fx.space.schema().num_features(), rng);
  FillParams(donor, 0.5f);
  const std::string good = ::testing::TempDir() + "/svc_standby.state";
  ASSERT_TRUE(nn::SaveState(donor, good).ok());

  // A corrupt file is rejected during the off-path stage: the active copy
  // keeps serving, nothing was published.
  std::string bytes = ReadAll(good);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string bad = good + ".corrupt";
  WriteAll(bad, bytes);
  EXPECT_FALSE(service.ReloadModel(bad).ok());
  auto still_old = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_FLOAT_EQ(still_old->Wait().logit, 0.0f);

  // The good file stages into the standby and publishes via the RCU swap.
  ASSERT_TRUE(service.ReloadModel(good).ok());
  auto after = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_NE(after->Wait().logit, 0.0f);
  EXPECT_EQ(after->Wait().code, ServeCode::kOk);

  // The swap published the standby copy; the old active object was never
  // written — its parameters are still all zeros.
  for (Variable& p : fx.model->Parameters()) {
    const Tensor& t = p.value();
    for (int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_FLOAT_EQ(t[i], 0.0f);
    }
  }

  // A second reload ping-pongs back into the now-idle original slot.
  models::Lr donor2(fx.space.schema().num_features(), rng);
  FillParams(donor2, 0.25f);
  const std::string good2 = ::testing::TempDir() + "/svc_standby2.state";
  ASSERT_TRUE(nn::SaveState(donor2, good2).ok());
  ASSERT_TRUE(service.ReloadModel(good2).ok());
  auto pingpong = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_EQ(pingpong->Wait().code, ServeCode::kOk);
  EXPECT_NE(pingpong->Wait().logit, after->Wait().logit);
  EXPECT_EQ(service.counters().reloads_ok, 2);
  EXPECT_EQ(service.counters().reloads_rejected, 1);
}

TEST(PredictionServiceTest, MultiWorkerAccountingIdentityHolds) {
  ServiceFixture fx("svc_multiworker");
  ServeOptions options;
  options.start_worker = true;
  options.num_workers = 4;
  // Real clock: the workers pace themselves; deadlines generous enough that
  // sanitizer slowdown cannot expire requests.
  PredictionService service(fx.model.get(), fx.space, options);

  constexpr int kRequests = 200;
  std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
  tickets.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    tickets.push_back(
        service.Submit({i % 2 == 0 ? "sf" : "nyc", "15"}, /*deadline=*/60.0));
  }
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait().code, ServeCode::kOk);
  }
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, kRequests);
  EXPECT_EQ(counters.completed_ok, kRequests);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

// The paper's model behind the service: three workers drain concurrent
// single-row submits into micro-batches of varying size, and every served
// logit matches the offline evaluator on the same rows.
TEST(PredictionServiceTest, MultiWorkerArmNetMatchesOfflineLogits) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("svc_armnet", &dataset, &space);
  Rng rng(11);
  core::ArmNet model(space.schema().num_features(), space.num_fields(),
                     SmallArmNetConfig(), rng);

  // Seen and unseen cities, in-range and clamped temperatures.
  const std::vector<std::vector<std::string>> rows = {
      {"sf", "10"},  {"nyc", "30"}, {"sf", "20"},  {"la", "25"},
      {"nyc", "-5"}, {"sf", "15"},  {"la", "100"}, {"nyc", "12.5"}};
  data::Dataset mapped(space.schema());
  for (const auto& row : rows) {
    MappedRow m;
    ASSERT_TRUE(space.MapRow(row, &m).ok());
    mapped.Append(m.ids, m.values, 0.0f);
  }
  const std::vector<float> expected = armor::PredictLogits(model, mapped);
  ASSERT_EQ(expected.size(), rows.size());

  ServeOptions options;
  options.num_workers = 3;
  options.max_batch_size = 16;
  options.queue_capacity = 1024;  // admits every submit below
  PredictionService service(&model, space, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::vector<std::shared_ptr<serve::PendingPrediction>>> tickets(
      kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tickets[static_cast<size_t>(t)].push_back(service.Submit(
            rows[static_cast<size_t>(i) % rows.size()], /*deadline=*/60.0));
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  for (const auto& per_thread : tickets) {
    for (size_t i = 0; i < per_thread.size(); ++i) {
      const PredictResult& result = per_thread[i]->Wait();
      ASSERT_EQ(result.code, ServeCode::kOk) << result.message;
      EXPECT_FALSE(result.degraded);
      EXPECT_NEAR(result.logit, expected[i % rows.size()], 1e-6)
          << "row " << i % rows.size();
    }
  }
  const serve::ServeCounters counters = service.counters();
  const int64_t submitted = kThreads * kPerThread;
  EXPECT_EQ(counters.submitted, submitted);
  EXPECT_EQ(counters.completed_ok, submitted);
  EXPECT_EQ(counters.Terminal(), submitted);
  // Forwards forming faster than single rows arrive is the point: four
  // submitters outpace three ARM-Net forwards, so some batches hold more
  // than one row.
  EXPECT_LT(counters.batches, submitted);
}

// Regression for the shutdown race (ISSUE 7 satellite): Shutdown() racing
// mid-flight Submit calls must leave every ticket terminally completed —
// no hung Wait(), identity preserved. Run under tsan in CI.
TEST(PredictionServiceTest, ShutdownRacingSubmitsLeavesNoHungTicket) {
  ServiceFixture fx("svc_shutdown_race");
  ServeOptions options;
  options.start_worker = true;
  options.num_workers = 2;
  PredictionService service(fx.model.get(), fx.space, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::shared_ptr<serve::PendingPrediction>>> tickets(
      kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &tickets, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tickets[static_cast<size_t>(t)].push_back(
            service.Submit({"sf", "15"}, /*deadline=*/60.0));
      }
    });
  }
  // Shut down while the submitters are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Shutdown();
  for (std::thread& s : submitters) s.join();
  service.Shutdown();  // idempotent

  // Every ticket — admitted, flushed, or refused post-shutdown — must be
  // terminal; Wait() returning at all is the no-hang assertion.
  int64_t observed = 0;
  for (const auto& per_thread : tickets) {
    for (const auto& ticket : per_thread) {
      const PredictResult& result = ticket->Wait();
      EXPECT_TRUE(result.code == ServeCode::kOk ||
                  result.code == ServeCode::kUnavailable ||
                  result.code == ServeCode::kOverloaded)
          << ServeCodeName(result.code);
      ++observed;
    }
  }
  EXPECT_EQ(observed, kThreads * kPerThread);
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, kThreads * kPerThread);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

// --- Fault-injection sites ---------------------------------------------------

TEST(ServeFaultTest, QueueStallLeavesRequestsPending) {
  if (!fault::kEnabled) GTEST_SKIP() << "fault injection compiled out";
  fault::DisarmAll();
  ServiceFixture fx("svc_stall");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  auto ticket = service.Submit({"sf", "15"});
  fault::Arm(fault::kSiteServeQueueStall, fault::Kind::kFailOpen,
             /*after=*/0, /*times=*/2);
  EXPECT_EQ(service.DrainOnce(), 0);  // stalled
  EXPECT_EQ(service.DrainOnce(), 0);  // stalled
  EXPECT_FALSE(ticket->done());
  EXPECT_EQ(service.DrainOnce(), 1);  // fault exhausted; queue drains
  EXPECT_EQ(ticket->Wait().code, ServeCode::kOk);
  fault::DisarmAll();
}

TEST(ServeFaultTest, SlowForwardConsumesQueuedDeadlines) {
  if (!fault::kEnabled) GTEST_SKIP() << "fault injection compiled out";
  fault::DisarmAll();
  ServiceFixture fx("svc_slow");
  ServeOptions options = fx.ManualOptions();
  options.max_batch_size = 1;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock);

  auto first = service.Submit({"sf", "15"}, 5.0);
  auto second = service.Submit({"nyc", "20"}, 5.0);
  // The first forward stalls the (virtual) clock past the second request's
  // deadline.
  fault::Arm(fault::kSiteServeSlowForward, fault::Kind::kClockStall,
             /*after=*/0, /*times=*/1, /*magnitude=*/10.0);
  EXPECT_EQ(service.DrainOnce(), 1);
  EXPECT_EQ(first->Wait().code, ServeCode::kOk);
  EXPECT_EQ(service.DrainOnce(), 1);
  EXPECT_EQ(second->Wait().code, ServeCode::kDeadlineExceeded);
  fault::DisarmAll();
}

TEST(ServeFaultTest, InjectedCorruptReloadIsRejected) {
  if (!fault::kEnabled) GTEST_SKIP() << "fault injection compiled out";
  fault::DisarmAll();
  ServiceFixture fx("svc_reload_fault");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  const std::string good = ::testing::TempDir() + "/svc_reload_fault.state";
  ASSERT_TRUE(nn::SaveState(*fx.model, good).ok());

  fault::Arm(fault::kSiteServeReloadCorrupt, fault::Kind::kFailOpen);
  EXPECT_FALSE(service.ReloadModel(good).ok());  // injected corruption
  EXPECT_EQ(service.counters().reloads_rejected, 1);
  // Old model still serving.
  auto ticket = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_EQ(ticket->Wait().code, ServeCode::kOk);
  fault::DisarmAll();
}

TEST(ServeFaultTest, WorkerStallParksWorkerButServiceRecovers) {
  if (!fault::kEnabled) GTEST_SKIP() << "fault injection compiled out";
  fault::DisarmAll();
  ServiceFixture fx("svc_worker_stall");
  ServeOptions options;
  options.start_worker = true;
  options.num_workers = 2;
  // Real clock: the stall parks a worker in real time; the other worker
  // (and the stalled one, once it resumes) keep the service answering.
  PredictionService service(fx.model.get(), fx.space, options);
  fault::Arm(fault::kSiteServeWorkerStall, fault::Kind::kClockStall,
             /*after=*/0, /*times=*/2, /*magnitude=*/0.02);
  for (int i = 0; i < 8; ++i) {
    const PredictResult result = service.Predict({"sf", "15"}, 60.0);
    EXPECT_EQ(result.code, ServeCode::kOk);
  }
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.completed_ok, 8);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
  fault::DisarmAll();
}

// --- End-to-end demo ---------------------------------------------------------

// The acceptance scenario: train on a synthetic CSV, persist model + schema
// artifact, then serve hostile traffic — unseen categories, out-of-range
// numericals, malformed cells, past-deadline requests. Every request gets a
// typed status, OOV rows produce finite logits, and the service counters
// account for 100% of submissions.
TEST(ServeE2ETest, TrainPersistServeDemo) {
  // 60-row CSV over 3 cities and a temperature column.
  const std::string csv = ::testing::TempDir() + "/e2e_train.csv";
  std::vector<std::string> lines = {"label,city,temp"};
  const char* cities[] = {"sf", "nyc", "la"};
  Rng rng(123);
  for (int i = 0; i < 60; ++i) {
    const int c = i % 3;
    const double temp = 10.0 + 1.5 * static_cast<double>(i % 20);
    lines.push_back(StrFormat("%d,%s,%.1f", c == 0 ? 1 : 0, cities[c], temp));
  }
  ASSERT_TRUE(WriteLines(csv, lines).ok());

  FeatureSpace space;
  StatusOr<data::Dataset> loaded = LoadCsvWithVocab(
      csv, {false, true}, data::LoadOptions{}, nullptr, ',', &space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const data::Dataset& dataset = loaded.value();

  // Train briefly and export the deployable pair.
  const std::string export_dir = ::testing::TempDir() + "/e2e_export";
  models::Lr model(dataset.schema().num_features(), rng);
  armor::TrainConfig config;
  config.max_epochs = 3;
  config.batch_size = 16;
  config.export_dir = export_dir;
  config.export_feature_space = &space;
  data::Splits splits = data::SplitDataset(dataset, rng);
  const armor::TrainResult trained = armor::Fit(model, splits, config);
  EXPECT_GT(trained.epochs_run, 0);

  // A fresh process would start from the artifacts alone.
  StatusOr<FeatureSpace> space2 =
      LoadFeatureSpace(export_dir + "/serving.artifact");
  ASSERT_TRUE(space2.ok()) << space2.status().message();
  Rng rng2(999);
  models::Lr served_model(space2.value().schema().num_features(), rng2);
  ASSERT_TRUE(
      nn::LoadState(served_model, export_dir + "/model.state").ok());

  VirtualClock clock;
  ServeOptions options;
  options.start_worker = false;
  PredictionService service(&served_model, std::move(space2).value(),
                            options, &clock);

  auto normal = service.Submit({"sf", "14.5"});
  auto unseen_city = service.Submit({"tokyo", "20"});
  auto out_of_range = service.Submit({"nyc", "1e6"});
  auto malformed = service.Submit({"la", "warm"});
  auto bad_arity = service.Submit({"sf"});
  auto past_deadline = service.Submit({"la", "25"}, 0.0);
  while (service.DrainOnce() > 0) {
  }

  EXPECT_EQ(normal->Wait().code, ServeCode::kOk);
  EXPECT_TRUE(std::isfinite(normal->Wait().logit));
  EXPECT_FALSE(normal->Wait().degraded);

  EXPECT_EQ(unseen_city->Wait().code, ServeCode::kOk);
  EXPECT_TRUE(std::isfinite(unseen_city->Wait().logit));
  EXPECT_EQ(unseen_city->Wait().oov_fields, 1);

  EXPECT_EQ(out_of_range->Wait().code, ServeCode::kOk);
  EXPECT_TRUE(std::isfinite(out_of_range->Wait().logit));
  EXPECT_EQ(out_of_range->Wait().clamped_fields, 1);

  EXPECT_EQ(malformed->Wait().code, ServeCode::kInvalidArgument);
  EXPECT_EQ(bad_arity->Wait().code, ServeCode::kInvalidArgument);
  EXPECT_EQ(past_deadline->Wait().code, ServeCode::kDeadlineExceeded);

  // Counter accounting: every submission reached exactly one terminal
  // bucket, and the named snapshots carry it.
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, 6);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
  EXPECT_EQ(counters.completed_ok, 3);
  EXPECT_EQ(counters.rejected_invalid, 2);
  EXPECT_EQ(counters.expired, 1);
  EXPECT_EQ(counters.oov_fields, 1);
  EXPECT_EQ(counters.clamped_fields, 1);

  const std::vector<std::pair<std::string, int64_t>> snapshot =
      service.CounterSnapshot();
  const auto submitted = std::find_if(
      snapshot.begin(), snapshot.end(),
      [](const auto& row) { return row.first == "serve/submitted"; });
  ASSERT_NE(submitted, snapshot.end());
  EXPECT_EQ(submitted->second, 6);
  const std::vector<std::pair<std::string, double>> gauges =
      service.GaugeSnapshot();
  EXPECT_TRUE(std::any_of(gauges.begin(), gauges.end(), [](const auto& row) {
    return row.first == "serve/batch_wait_seconds";
  }));
}

// --- Quantized embedding stores (DESIGN.md §14) ------------------------------

nn::Embedding* FirstEmbedding(models::TabularModel& model) {
  for (nn::Module* m : model.SelfAndDescendants()) {
    if (auto* e = dynamic_cast<nn::Embedding*>(m)) return e;
  }
  return nullptr;
}

TEST(PredictionServiceTest, MmapEmbeddingStoreServesAndDetachesOnReload) {
  // Once with the in-place reload and once with the warm-standby RCU reload:
  // either way the store comes off with the weights it was exported for.
  for (const bool with_standby : {false, true}) {
    SCOPED_TRACE(with_standby ? "warm standby" : "no standby");
    ServiceFixture fx(with_standby ? "svc_embed_store_standby"
                                   : "svc_embed_store");
    Rng standby_rng(5);
    models::Lr standby(fx.space.schema().num_features(), standby_rng);

    // Distinctive embedding weights (bias stays 0), exported to a store
    // file BEFORE the weights are zeroed: if serving later reproduces this
    // logit, it can only have come through the mmap-backed store.
    nn::Embedding* embedding = FirstEmbedding(*fx.model);
    ASSERT_NE(embedding, nullptr);
    Variable table_var = embedding->table();  // shared handle onto the param
    Tensor& table = table_var.mutable_value();
    std::fill(table.data(), table.data() + table.numel(), 0.5f);
    const std::string store_path =
        ::testing::TempDir() + "/svc_embed_store.arms";
    ASSERT_TRUE(
        nn::SaveEmbeddingStore(
            *QuantizedTable::Quantize(table, QuantKind::kFloat32), store_path)
            .ok());

    PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                              &fx.clock, /*fallback=*/nullptr,
                              with_standby ? &standby : nullptr);
    auto stores_attached = [&service]() {
      for (const auto& [name, count] : service.CounterSnapshot()) {
        if (name == "serve/embedding_stores_attached") return count;
      }
      return int64_t{-1};
    };
    auto with_floats = service.Submit({"sf", "15"});
    service.DrainOnce();
    const float expected = with_floats->Wait().logit;
    ASSERT_NE(expected, 0.0f);

    // Zero the float table: the float path now answers 0. Persist THESE
    // weights — the reload at the end must visibly swap away from the store.
    std::fill(table.data(), table.data() + table.numel(), 0.0f);
    auto zeroed = service.Submit({"sf", "15"});
    service.DrainOnce();
    ASSERT_FLOAT_EQ(zeroed->Wait().logit, 0.0f);
    const std::string weights_path =
        ::testing::TempDir() + "/svc_embed_store.state";
    ASSERT_TRUE(nn::SaveState(*fx.model, weights_path).ok());

    // A corrupt store file is rejected whole before any quiesce: the model
    // is untouched and keeps serving the float path.
    std::string bytes = ReadAll(store_path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    const std::string bad = store_path + ".corrupt";
    WriteAll(bad, bytes);
    EXPECT_FALSE(service.AttachEmbeddingStore(bad).ok());
    ASSERT_FALSE(service.incidents().empty());
    EXPECT_NE(service.incidents().back().find("embedding store rejected"),
              std::string::npos);
    auto untouched = service.Submit({"sf", "15"});
    service.DrainOnce();
    EXPECT_FLOAT_EQ(untouched->Wait().logit, 0.0f);

    // The good file attaches; no-grad serving now gathers the mapped 0.5
    // rows bit-exactly (float32 store), restoring the original logit.
    ASSERT_TRUE(service.AttachEmbeddingStore(store_path).ok());
    auto served = service.Submit({"sf", "15"});
    service.DrainOnce();
    EXPECT_EQ(served->Wait().code, ServeCode::kOk);
    EXPECT_FLOAT_EQ(served->Wait().logit, expected);
    EXPECT_EQ(stores_attached(), 1);

    // Reloading weights detaches the store (it pairs with the weights it
    // was exported from) and records an operator incident on that very
    // reload; the reloaded all-zero float table serves again, atomically.
    ASSERT_TRUE(service.ReloadModel(weights_path).ok());
    ASSERT_FALSE(service.incidents().empty());
    EXPECT_NE(service.incidents().back().find("detached 1 quantized"),
              std::string::npos)
        << service.incidents().back();
    auto after_reload = service.Submit({"sf", "15"});
    service.DrainOnce();
    EXPECT_EQ(after_reload->Wait().code, ServeCode::kOk);
    EXPECT_FLOAT_EQ(after_reload->Wait().logit, 0.0f);
    EXPECT_EQ(stores_attached(), 0);

    // A second reload has no store left to detach and reports none.
    const size_t incidents_before = service.incidents().size();
    ASSERT_TRUE(service.ReloadModel(weights_path).ok());
    EXPECT_EQ(service.incidents().size(), incidents_before);
  }
}

TEST(PredictionServiceTest, EmbeddingStoreGeometryMismatchRejected) {
  ServiceFixture fx("svc_embed_geom");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  // A valid store whose geometry matches no table in the model.
  Rng rng(3);
  const Tensor other = Tensor::Normal(Shape({3, 7}), 0, 1, rng);
  const std::string path = ::testing::TempDir() + "/svc_embed_geom.arms";
  ASSERT_TRUE(
      nn::SaveEmbeddingStore(
          *QuantizedTable::Quantize(other, QuantKind::kInt8), path)
          .ok());
  const Status status = service.AttachEmbeddingStore(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("matches no embedding"), std::string::npos);
  // Rejection leaves serving untouched.
  auto ok = service.Submit({"sf", "15"});
  service.DrainOnce();
  EXPECT_EQ(ok->Wait().code, ServeCode::kOk);
}

}  // namespace
}  // namespace armnet
