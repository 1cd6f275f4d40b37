// Tests for drift monitoring, shadow deployment, and the bulk PredictTable
// operator (DESIGN.md §15): drift-reference round-trips and backward
// compatibility with pre-drift artifacts, alert raise/clear edges on a
// virtual clock, PSI score-shift detection, shadow mirroring with the
// promotion protocol (allowed in bounds, typed refusal with evidence
// beyond), stall/NaN isolation of the shadow path from the primary, the
// accounting identity under shadowing, the drift metrics snapshot, and
// PredictTable's row-error policies.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/feature_space.h"
#include "data/loader.h"
#include "models/lr.h"
#include "nn/serialize.h"
#include "serve/predict_table.h"
#include "serve/service.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace armnet {
namespace {

using data::DriftReference;
using data::FeatureSpace;
using data::LoadFeatureSpace;
using data::MappedRow;
using data::SaveFeatureSpace;
using serve::PredictionService;
using serve::ServeCode;
using serve::ServeOptions;
using serve::ShadowStats;

// Writes a small train CSV (categorical city + numerical temp) and loads it
// with its feature space. Vocabulary: {sf, nyc}; temp range [10, 30].
void BuildSpace(const std::string& tag, data::Dataset* dataset,
                FeatureSpace* space) {
  const std::string path = ::testing::TempDir() + "/" + tag + ".csv";
  ASSERT_TRUE(WriteLines(path, {"label,city,temp", "1,sf,10", "0,nyc,30",
                                "1,sf,20"})
                  .ok());
  StatusOr<data::Dataset> result = data::LoadCsvWithVocab(
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

// A reference whose score histogram matches an all-zero LR exactly: logit 0
// -> sigmoid 0.5 -> bin 8 of 16. Clean traffic through a zero model then
// has zero PSI against it.
DriftReference ZeroModelReference() {
  DriftReference reference;
  reference.score_histogram.assign(data::kDriftScoreBins, 0);
  reference.score_histogram[data::kDriftScoreBins / 2] = 1000;
  return reference;
}

// Fast-alerting drift options for virtual-clock tests.
serve::DriftOptions FastDrift() {
  serve::DriftOptions drift;
  drift.window_seconds = 10.0;
  drift.window_buckets = 5;
  drift.min_window_requests = 20;
  return drift;
}

struct Fixture {
  data::Dataset dataset;
  FeatureSpace space;
  Rng rng{7};
  std::unique_ptr<models::Lr> model;
  std::unique_ptr<models::Lr> shadow;
  VirtualClock clock;

  explicit Fixture(const std::string& tag, bool with_reference = true) {
    BuildSpace(tag, &dataset, &space);
    if (with_reference) space.set_drift_reference(ZeroModelReference());
    model = std::make_unique<models::Lr>(space.schema().num_features(), rng);
    shadow = std::make_unique<models::Lr>(space.schema().num_features(), rng);
    FillParams(*model, 0.0f);
    FillParams(*shadow, 0.0f);
  }

  ServeOptions ManualOptions() const {
    ServeOptions options;
    options.start_worker = false;
    options.drift = FastDrift();
    options.shadow.min_mirrored_rows = 4;
    return options;
  }

  std::string SaveShadowState(const std::string& tag) {
    const std::string path = ::testing::TempDir() + "/" + tag + ".state";
    EXPECT_TRUE(nn::SaveState(*shadow, path).ok());
    return path;
  }
};

void Pump(PredictionService& service) {
  while (service.DrainOnce() > 0) {
  }
}

// --- Drift reference serialization -------------------------------------------

TEST(DriftReferenceTest, RoundTripsThroughArtifact) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("drift_roundtrip", &dataset, &space);
  ASSERT_FALSE(space.has_drift_reference());

  DriftReference reference;
  reference.score_histogram.assign(data::kDriftScoreBins, 0);
  reference.score_histogram[3] = 40;
  reference.score_histogram[12] = 60;
  reference.baseline_oov_rate = {0.01, 0.0};
  reference.baseline_clamp_rate = {0.0, 0.02};
  space.set_drift_reference(reference);
  ASSERT_TRUE(space.has_drift_reference());

  const std::string path = ::testing::TempDir() + "/drift_roundtrip.artifact";
  ASSERT_TRUE(SaveFeatureSpace(space, path).ok());
  StatusOr<FeatureSpace> loaded = LoadFeatureSpace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded.value().has_drift_reference());
  const DriftReference& round = loaded.value().drift_reference();
  EXPECT_EQ(round.score_histogram, reference.score_histogram);
  EXPECT_EQ(round.baseline_oov_rate, reference.baseline_oov_rate);
  EXPECT_EQ(round.baseline_clamp_rate, reference.baseline_clamp_rate);
}

TEST(DriftReferenceTest, MapRowReportsPerFieldIndices) {
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("drift_maprow", &dataset, &space);
  MappedRow mapped;
  ASSERT_TRUE(space.MapRow({"tokyo", "1e6"}, &mapped).ok());
  EXPECT_EQ(mapped.oov_field_indices, std::vector<int32_t>{0});
  EXPECT_EQ(mapped.clamped_field_indices, std::vector<int32_t>{1});
  ASSERT_TRUE(space.MapRow({"sf", "15"}, &mapped).ok());
  EXPECT_TRUE(mapped.oov_field_indices.empty());
  EXPECT_TRUE(mapped.clamped_field_indices.empty());
}

TEST(DriftReferenceTest, PreDriftArtifactLoadsWithMonitoringDisabled) {
  // An artifact saved without a reference is byte-identical to the previous
  // serialization format; loading it must succeed and serve with drift
  // monitoring off — an OOV flood never alerts and never degrades Ready.
  data::Dataset dataset;
  FeatureSpace space;
  BuildSpace("drift_oldfmt", &dataset, &space);
  const std::string path = ::testing::TempDir() + "/drift_oldfmt.artifact";
  ASSERT_TRUE(SaveFeatureSpace(space, path).ok());
  StatusOr<FeatureSpace> loaded = LoadFeatureSpace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(loaded.value().has_drift_reference());

  Rng rng(7);
  models::Lr model(loaded.value().schema().num_features(), rng);
  FillParams(model, 0.0f);
  VirtualClock clock;
  ServeOptions options;
  options.start_worker = false;
  options.drift.min_window_requests = 5;
  PredictionService service(&model, loaded.value(), options, &clock);
  EXPECT_FALSE(service.DriftSnapshot().enabled);

  for (int i = 0; i < 64; ++i) {
    (void)service.Submit({"totally_unseen", "1e9"});
    Pump(service);
  }
  EXPECT_FALSE(service.DriftAlertActive());
  EXPECT_TRUE(service.Ready());
  EXPECT_EQ(service.counters().drift_alerts, 0);
}

// --- Drift alerts -------------------------------------------------------------

TEST(DriftMonitorTest, HostileTrafficRaisesAlertAndRecoveryClears) {
  Fixture fx("drift_alert");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);

  // Clean warm-up: in-vocabulary, in-range — no alert.
  for (int i = 0; i < 30; ++i) {
    (void)service.Submit({i % 2 == 0 ? "sf" : "nyc", "15"});
  }
  Pump(service);
  EXPECT_FALSE(service.DriftAlertActive());
  EXPECT_TRUE(service.Ready());

  // OOV flood: the city field's window rate blows through the threshold.
  for (int i = 0; i < 40; ++i) {
    (void)service.Submit({StrFormat("flood_%d", i), "15"});
  }
  Pump(service);
  EXPECT_TRUE(service.DriftAlertActive());
  EXPECT_FALSE(service.Ready()) << "a latched drift alert must degrade Ready";
  EXPECT_GT(service.counters().drift_alerts, 0);
  bool described = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("field 'city' oov rate") != std::string::npos) {
      described = true;
    }
  }
  EXPECT_TRUE(described) << "alert incident must name the drifting column";

  const serve::DriftSnapshotData snap = service.DriftSnapshot();
  ASSERT_EQ(snap.fields.size(), 2u);
  EXPECT_TRUE(snap.fields[0].alerting);
  EXPECT_GT(snap.fields[0].window_oov_rate, 0.10);

  // Recovery: the window rotates past the hostile buckets while clean
  // traffic keeps flowing — the alert clears and Ready recovers.
  fx.clock.Advance(11.0);
  for (int i = 0; i < 30; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  EXPECT_FALSE(service.DriftAlertActive());
  EXPECT_TRUE(service.Ready());
  bool cleared = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("drift cleared: oov:city") != std::string::npos) {
      cleared = true;
    }
  }
  EXPECT_TRUE(cleared);
}

TEST(DriftMonitorTest, ClampFloodAlertsOnNumericalField) {
  Fixture fx("drift_clamp");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  for (int i = 0; i < 40; ++i) {
    (void)service.Submit({"sf", i % 2 == 0 ? "1e9" : "-1e9"});
  }
  Pump(service);
  EXPECT_TRUE(service.DriftAlertActive());
  bool described = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("field 'temp' clamp rate") != std::string::npos) {
      described = true;
    }
  }
  EXPECT_TRUE(described);
}

TEST(DriftMonitorTest, ScoreShiftRaisesPsiAlert) {
  // Reference mass sits in the bottom score bin; the zero model scores
  // everything at 0.5 (bin 8), so clean-looking traffic still drifts in
  // score space — exactly what PSI is for.
  Fixture fx("drift_psi", /*with_reference=*/false);
  DriftReference reference;
  reference.score_histogram.assign(data::kDriftScoreBins, 0);
  reference.score_histogram[0] = 1000;
  fx.space.set_drift_reference(reference);
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  for (int i = 0; i < 40; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  EXPECT_TRUE(service.DriftAlertActive());
  EXPECT_GT(service.DriftSnapshot().score_psi, 0.25);
  bool described = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("score PSI") != std::string::npos) described = true;
  }
  EXPECT_TRUE(described);
}

TEST(DriftMonitorTest, CleanTrafficNeverAlerts) {
  Fixture fx("drift_clean");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  for (int i = 0; i < 200; ++i) {
    (void)service.Submit({i % 2 == 0 ? "sf" : "nyc", "15"});
    if (i % 10 == 0) {
      Pump(service);
      fx.clock.Advance(0.5);
    }
  }
  Pump(service);
  EXPECT_FALSE(service.DriftAlertActive());
  EXPECT_TRUE(service.Ready());
  EXPECT_EQ(service.counters().drift_alerts, 0);
  EXPECT_LT(service.DriftSnapshot().score_psi, 0.25);
}

// --- Shadow deployment --------------------------------------------------------

TEST(ShadowTest, MirrorsAccumulateAndPromotionWithinBoundsPublishes) {
  Fixture fx("shadow_promote");
  const std::string path = fx.SaveShadowState("shadow_promote");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());

  EXPECT_FALSE(service.ShadowActive());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  EXPECT_TRUE(service.ShadowActive());

  for (int i = 0; i < 16; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  const ShadowStats stats = service.ShadowSnapshot();
  EXPECT_GE(stats.mirrored_rows, 16);
  EXPECT_DOUBLE_EQ(stats.mean_abs_delta, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_abs_delta, 0.0);
  EXPECT_EQ(stats.failed_forwards, 0);

  const Status promoted = service.PromoteShadow();
  ASSERT_TRUE(promoted.ok()) << promoted.message();
  EXPECT_FALSE(service.ShadowActive()) << "promotion consumes the candidate";
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.shadow_promotions_ok, 1);
  EXPECT_EQ(counters.reloads_ok, 1) << "promotion publishes via RCU reload";
  bool evidenced = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("shadow promoted") != std::string::npos) {
      evidenced = true;
    }
  }
  EXPECT_TRUE(evidenced);
}

TEST(ShadowTest, PromotionBeyondBoundsRefusedWithEvidence) {
  Fixture fx("shadow_refuse");
  FillParams(*fx.shadow, 5.0f);  // divergent candidate: huge logit deltas
  const std::string path = fx.SaveShadowState("shadow_refuse");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  for (int i = 0; i < 16; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  ASSERT_GT(service.ShadowSnapshot().mean_abs_delta, 0.25);

  const Status refused = service.PromoteShadow();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("refused"), std::string::npos);
  EXPECT_NE(refused.message().find("mean |dlogit|"), std::string::npos)
      << "refusal must carry the measured evidence: " << refused.message();
  EXPECT_TRUE(service.ShadowActive())
      << "a refused candidate stays staged for more evidence";
  EXPECT_EQ(service.counters().shadow_promotions_refused, 1);
  EXPECT_EQ(service.counters().reloads_ok, 0);
}

TEST(ShadowTest, PromotionWithoutEvidenceRefused) {
  Fixture fx("shadow_noevidence");
  const std::string path = fx.SaveShadowState("shadow_noevidence");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  const Status refused = service.PromoteShadow();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("insufficient evidence"),
            std::string::npos);
}

TEST(ShadowTest, NanCandidateCountsFailuresNeverTouchesBreaker) {
  Fixture fx("shadow_nan");
  const std::string path = fx.SaveShadowState("shadow_nan");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  // Gather healthy evidence, then the candidate's weights go bad in place
  // (the worst staging hazard: NaNs appearing under an already-staged
  // candidate).
  for (int i = 0; i < 8; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  FillParams(*fx.shadow, std::numeric_limits<float>::quiet_NaN());
  for (int i = 0; i < 8; ++i) {
    auto ticket = service.Submit({"sf", "15"});
    Pump(service);
    EXPECT_EQ(ticket->Wait().code, ServeCode::kOk)
        << "a NaN shadow must never affect primary results";
  }
  const serve::ServeCounters counters = service.counters();
  EXPECT_GT(counters.shadow_failures, 0);
  EXPECT_EQ(counters.completed_ok, 16);
  EXPECT_EQ(counters.degraded_fallback + counters.degraded_prior, 0);
  EXPECT_TRUE(service.Ready()) << "shadow failures never open the breaker";

  const Status refused = service.PromoteShadow();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("non-finite"), std::string::npos);
}

TEST(ShadowTest, DriftAlertAutoDismissesCandidate) {
  Fixture fx("shadow_dismiss");
  const std::string path = fx.SaveShadowState("shadow_dismiss");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  for (int i = 0; i < 40; ++i) {
    (void)service.Submit({StrFormat("flood_%d", i), "15"});
  }
  Pump(service);
  EXPECT_TRUE(service.DriftAlertActive());
  EXPECT_FALSE(service.ShadowActive())
      << "evidence gathered against drifted traffic is invalid";
  EXPECT_EQ(service.counters().shadow_dismissed, 1);
  bool dismissed = false;
  for (const std::string& incident : service.incidents()) {
    if (incident.find("shadow dismissed") != std::string::npos) {
      dismissed = true;
    }
  }
  EXPECT_TRUE(dismissed);
}

TEST(ShadowTest, MirrorFractionSamplesDeterministically) {
  Fixture fx("shadow_fraction");
  const std::string path = fx.SaveShadowState("shadow_fraction");
  ServeOptions options = fx.ManualOptions();
  options.shadow.mirror_fraction = 0.25;
  options.max_batch_size = 1;  // one batch per request: exact expectations
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock,
                            /*fallback=*/nullptr, /*standby=*/nullptr,
                            fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  for (int i = 0; i < 32; ++i) {
    (void)service.Submit({"sf", "15"});
    Pump(service);
  }
  EXPECT_EQ(service.ShadowSnapshot().mirrored_batches, 8)
      << "Bresenham sampling mirrors exactly fraction * batches";
}

TEST(ShadowTest, StallIsolatedFromPrimaryLatencyAndBreaker) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "fault injection not compiled in";
  }
  Fixture fx("shadow_stall");
  const std::string path = fx.SaveShadowState("shadow_stall");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock, /*fallback=*/nullptr,
                            /*standby=*/nullptr, fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());

  fault::Arm(fault::kSiteServeShadowStall, fault::Kind::kClockStall,
             /*after=*/0, /*times=*/8, /*magnitude=*/0.030);
  Stopwatch wall;
  std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(service.Submit({"sf", "15"}));
    Pump(service);
  }
  const double wall_seconds = wall.ElapsedSeconds();
  fault::DisarmAll();

  // The stall parked the mirroring path in real time...
  EXPECT_GT(wall_seconds, 0.030) << "the stall never actually parked";
  // ...but the service clock never moved, so no primary latency or
  // deadline absorbed it, and the breaker heard nothing.
  for (const auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait().code, ServeCode::kOk);
    EXPECT_DOUBLE_EQ(ticket->Wait().latency_seconds, 0.0);
  }
  EXPECT_TRUE(service.Ready());
  EXPECT_GT(service.ShadowSnapshot().mirrored_batches, 0);
}

TEST(ShadowTest, AccountingIdentityHoldsUnderShadowing) {
  Fixture fx("shadow_identity");
  const std::string path = fx.SaveShadowState("shadow_identity");
  ServeOptions options = fx.ManualOptions();
  options.queue_capacity = 8;
  PredictionService service(fx.model.get(), fx.space, options, &fx.clock,
                            /*fallback=*/nullptr, /*standby=*/nullptr,
                            fx.shadow.get());
  ASSERT_TRUE(service.LoadShadowModel(path).ok());
  for (int i = 0; i < 100; ++i) {
    switch (i % 5) {
      case 0: (void)service.Submit({"sf", "15"}); break;
      case 1: (void)service.Submit({StrFormat("oov_%d", i), "1e9"}); break;
      case 2: (void)service.Submit({"sf"}); break;          // invalid arity
      case 3: (void)service.Submit({"nyc", "cold"}); break;  // invalid cell
      default: (void)service.Submit({"nyc", "25"}, 0.0); break;  // expired
    }
    if (i % 3 == 0) Pump(service);
  }
  Pump(service);
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.Terminal(), counters.submitted)
      << "shadow/drift counters must stay non-terminal";
  EXPECT_GT(counters.shadow_mirrored_rows, 0);
}

// --- Drift metrics snapshot --------------------------------------------------

TEST(DriftMetricsTest, SnapshotCarriesDriftAndShadowRows) {
  Fixture fx("drift_snapshot");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  for (int i = 0; i < 8; ++i) {
    (void)service.Submit({"sf", "15"});
  }
  Pump(service);
  const std::vector<std::pair<std::string, double>> metrics =
      service.DriftMetricsSnapshot();
  auto find = [&metrics](const std::string& name) {
    return std::find_if(
        metrics.begin(), metrics.end(),
        [&name](const auto& row) { return row.first == name; });
  };
  const auto enabled = find("drift/enabled");
  ASSERT_NE(enabled, metrics.end());
  EXPECT_EQ(enabled->second, 1.0);
  EXPECT_NE(find("drift/field/city/oov_rate"), metrics.end());
  EXPECT_NE(find("shadow/mean_abs_delta"), metrics.end());
}

// --- PredictTable -------------------------------------------------------------

struct TableFixture : Fixture {
  explicit TableFixture(const std::string& tag) : Fixture(tag) {}

  // A service with a live worker: PredictTable blocks on Wait(), so the
  // drain must happen off the caller's thread.
  ServeOptions WorkerOptions() const {
    ServeOptions options;
    options.start_worker = true;
    options.drift = FastDrift();
    return options;
  }

  std::string WriteTable(const std::string& tag,
                         const std::vector<std::string>& lines) {
    const std::string path = ::testing::TempDir() + "/" + tag + "_in.csv";
    EXPECT_TRUE(WriteLines(path, lines).ok());
    return path;
  }
};

TEST(PredictTableTest, ScoresEveryRowAndReconcilesWithServeCounters) {
  TableFixture fx("table_ok");
  PredictionService service(fx.model.get(), fx.space, fx.WorkerOptions());
  const std::string in = fx.WriteTable(
      "table_ok", {"city,temp", "sf,15", "nyc,25", "tokyo,99", "sf,1e9"});
  const std::string out = ::testing::TempDir() + "/table_ok_out.csv";
  serve::PredictTableReport report;
  const Status status =
      serve::PredictTable(service, in, out, {}, &report);
  service.Shutdown();
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_EQ(report.rows_read, 4);
  EXPECT_EQ(report.rows_submitted, 4);
  EXPECT_EQ(report.rows_ok, 4);  // OOV + clamp are valid degraded inputs
  EXPECT_EQ(report.rows_invalid, 0);

  StatusOr<CsvTable> scored = ReadCsv(out, ',', /*has_header=*/true);
  ASSERT_TRUE(scored.ok());
  ASSERT_EQ(scored.value().rows.size(), 4u);
  for (const auto& row : scored.value().rows) {
    ASSERT_EQ(row.size(), 4u);  // logit,probability,code,degraded
    EXPECT_EQ(row[2], "OK");
    float logit = 0;
    ASSERT_TRUE(ParseFloat(row[0], &logit));
    EXPECT_TRUE(std::isfinite(logit));
  }

  // The operator's report reconciles exactly with the serve accounting.
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, report.rows_submitted);
  EXPECT_EQ(counters.completed_ok, report.rows_ok);
  EXPECT_EQ(counters.Terminal(), counters.submitted);
}

TEST(PredictTableTest, StrictPolicyFailsFastWithRowContext) {
  TableFixture fx("table_strict");
  PredictionService service(fx.model.get(), fx.space, fx.WorkerOptions());
  const std::string in = fx.WriteTable(
      "table_strict", {"city,temp", "sf,15", "nyc,not_a_number", "sf,20"});
  const std::string out = ::testing::TempDir() + "/table_strict_out.csv";
  serve::PredictTableReport report;
  const Status status =
      serve::PredictTable(service, in, out, {}, &report);
  service.Shutdown();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":2:"), std::string::npos)
      << "strict failure must name the 1-based data row: "
      << status.message();
  EXPECT_EQ(report.rows_invalid, 1);
  // No partial output on a strict failure.
  EXPECT_FALSE(ReadCsv(out, ',', true).ok());
}

TEST(PredictTableTest, QuarantinePolicySidelinesBadRowsVerbatim) {
  TableFixture fx("table_quarantine");
  PredictionService service(fx.model.get(), fx.space, fx.WorkerOptions());
  const std::string in = fx.WriteTable(
      "table_quarantine",
      {"city,temp", "sf,15", "nyc,not_a_number", "sf,20", "nyc,also_bad"});
  const std::string out = ::testing::TempDir() + "/table_quarantine_out.csv";
  const std::string jail = ::testing::TempDir() + "/table_quarantine_jail.csv";
  std::remove(jail.c_str());  // the quarantine sink appends by design
  serve::PredictTableOptions options;
  options.policy = data::RowErrorPolicy::kQuarantine;
  options.quarantine_path = jail;
  serve::PredictTableReport report;
  const Status status = serve::PredictTable(service, in, out, options,
                                            &report);
  service.Shutdown();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(report.rows_ok, 2);
  EXPECT_EQ(report.rows_invalid, 2);
  EXPECT_EQ(report.rows_skipped, 2);
  EXPECT_EQ(report.rows_quarantined, 2);
  ASSERT_FALSE(report.errors.empty());

  StatusOr<CsvTable> jailed = ReadCsv(jail, ',', /*has_header=*/false);
  ASSERT_TRUE(jailed.ok());
  ASSERT_EQ(jailed.value().rows.size(), 2u);
  EXPECT_EQ(jailed.value().rows[0],
            (std::vector<std::string>{"nyc", "not_a_number"}));
  EXPECT_EQ(jailed.value().rows[1],
            (std::vector<std::string>{"nyc", "also_bad"}));

  StatusOr<CsvTable> scored = ReadCsv(out, ',', /*has_header=*/true);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(scored.value().rows.size(), 2u);
}

TEST(PredictTableTest, QuarantineWithoutPathRejected) {
  TableFixture fx("table_nopath");
  PredictionService service(fx.model.get(), fx.space, fx.ManualOptions(),
                            &fx.clock);
  serve::PredictTableOptions options;
  options.policy = data::RowErrorPolicy::kQuarantine;
  const Status status = serve::PredictTable(
      service, "unused.csv", "unused_out.csv", options, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("quarantine_path"), std::string::npos);
}

}  // namespace
}  // namespace armnet
