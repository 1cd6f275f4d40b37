// Chaos soak harness for the multi-worker serving layer (DESIGN.md §13,
// ISSUE 7): several submitter threads drive open-loop Poisson traffic at a
// worker pool while a chaos thread alternates valid and corrupt hot
// reloads, restages/promotes/dismisses a shadow candidate, and (when fault
// injection is compiled in) arms worker stalls, shadow stalls, and drift
// skew — all on a fixed seed. Drift monitoring runs live (the space
// carries a reference), so alert raise/clear edges, auto-dismissed
// shadows, and degraded Ready probes are part of the churn. The run ends
// with the three invariants the serving layer promises under any
// interleaving:
//
//   1. no hung tickets — every Submit ever issued reaches a terminal
//      state and its Wait() returns;
//   2. exact accounting — submitted == Σ terminal buckets, across all
//      worker counter shards;
//   3. reload isolation — corrupt reloads were rejected without taking
//      the service down, valid reloads published without wedging anyone.
//
// Duration comes from ARMNET_SOAK_SECONDS (default 2 — a smoke-length run
// for plain ctest); the CI soak job sets 30 and runs this under the tsan
// and fault-injection presets, which is where the harness earns its keep:
// tsan turns any torn counter or unguarded slot access into a failure.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/feature_space.h"
#include "data/loader.h"
#include "models/lr.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace armnet {
namespace {

using data::FeatureSpace;
using serve::PendingPrediction;
using serve::PredictionService;
using serve::ServeCode;
using serve::ServeOptions;

double SoakSeconds() {
  const char* env = std::getenv("ARMNET_SOAK_SECONDS");
  if (env == nullptr) return 2.0;
  const double parsed = std::atof(env);
  return parsed > 0 ? parsed : 2.0;
}

void FillParams(models::TabularModel& model, float value) {
  std::vector<Variable> params = model.Parameters();
  for (Variable& p : params) {
    Tensor& t = p.mutable_value();
    std::fill(t.data(), t.data() + t.numel(), value);
  }
}

// One ticket plus enough context to audit its outcome afterwards.
struct Issued {
  std::shared_ptr<PendingPrediction> ticket;
  bool valid = true;  // was the submitted row well-formed?
};

TEST(ServeSoakTest, ChaosRunKeepsInvariants) {
  const double duration = SoakSeconds();

  // Fixture: tiny categorical+numerical space, all-zero LR as the active
  // model, a distinct standby copy for RCU reloads, an all-zero fallback.
  const std::string csv = ::testing::TempDir() + "/soak_train.csv";
  ASSERT_TRUE(WriteLines(csv, {"label,city,temp", "1,sf,10", "0,nyc,30",
                               "1,sf,20"})
                  .ok());
  FeatureSpace space;
  StatusOr<data::Dataset> loaded = data::LoadCsvWithVocab(
      csv, {false, true}, data::LoadOptions{}, nullptr, ',', &space);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  // Drift-enabled artifact: a uniform reference histogram keeps the PSI
  // quiet while the ~18% OOV traffic mix drives the per-field alert above
  // threshold, so raise/clear edges and shadow auto-dismissal churn
  // throughout the run.
  data::DriftReference reference;
  reference.score_histogram.assign(data::kDriftScoreBins, 10);
  space.set_drift_reference(std::move(reference));

  Rng rng(7);
  models::Lr model(space.schema().num_features(), rng);
  models::Lr standby(space.schema().num_features(), rng);
  models::Lr fallback(space.schema().num_features(), rng);
  models::Lr shadow(space.schema().num_features(), rng);
  FillParams(model, 0.0f);
  FillParams(fallback, 0.0f);

  // Reload inputs: one good state file, one bit-flipped copy that must be
  // rejected whole by the CRC-framed loader.
  models::Lr donor(space.schema().num_features(), rng);
  FillParams(donor, 0.125f);
  const std::string good = ::testing::TempDir() + "/soak_good.state";
  ASSERT_TRUE(nn::SaveState(donor, good).ok());
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string corrupt = good + ".corrupt";
  {
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  ServeOptions options;
  options.start_worker = true;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.max_batch_size = 16;
  options.shed_watermark = 48;
  options.latency_budget_seconds = 0.020;
  options.default_deadline_seconds = 5.0;
  options.drift.window_seconds = 1.0;
  options.drift.window_buckets = 4;
  options.drift.min_window_requests = 50;
  options.shadow.mirror_fraction = 0.5;
  options.shadow.min_mirrored_rows = 32;
  PredictionService service(&model, space, options, /*clock=*/nullptr,
                            &fallback, &standby, &shadow);
  ASSERT_TRUE(service.LoadShadowModel(good).ok());

  std::atomic<bool> stop{false};

  // Submitters: open-loop Poisson arrivals (exponential inter-arrival
  // times, fixed per-thread seed), mixing valid, OOV, out-of-range, and
  // malformed rows plus occasional zero deadlines.
  constexpr int kSubmitters = 2;
  const double mean_gap_seconds = 0.002;
  std::vector<std::vector<Issued>> issued(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &issued, &stop, mean_gap_seconds, t] {
      Rng thread_rng(1000 + static_cast<uint64_t>(t));
      std::vector<Issued>& mine = issued[static_cast<size_t>(t)];
      while (!stop.load()) {
        Issued entry;
        const double pick = thread_rng.Uniform();
        std::vector<std::string> cells;
        if (pick < 0.70) {
          cells = {pick < 0.35 ? "sf" : "nyc", "15"};
        } else if (pick < 0.85) {
          cells = {"tokyo", "1e6"};  // OOV + clamped, still valid
        } else if (pick < 0.95) {
          cells = {"sf", "warm"};  // malformed numeric
          entry.valid = false;
        } else {
          cells = {"sf"};  // arity error
          entry.valid = false;
        }
        const double deadline =
            thread_rng.Uniform() < 0.05 ? 0.0 : 5.0;  // 5% dead on arrival
        entry.ticket = service.Submit(cells, deadline);
        mine.push_back(std::move(entry));
        // Exponential inter-arrival gap (Poisson process).
        const double u = thread_rng.Uniform();
        const double gap = -std::log(1.0 - u) * mean_gap_seconds;
        std::this_thread::sleep_for(std::chrono::duration<double>(gap));
      }
    });
  }

  // Chaos: alternate good/corrupt reloads under load, restage/promote/
  // dismiss the shadow candidate, arm worker stalls, shadow stalls, and
  // drift skew when fault injection is compiled in, and concurrently read
  // every public snapshot the service exposes (tsan audits the merges).
  int64_t chaos_reload_ok = 0;
  int64_t chaos_reload_rejected = 0;
  int64_t chaos_promote_ok = 0;
  int64_t chaos_promote_refused = 0;
  std::thread chaos([&] {
    Rng chaos_rng(42);
    bool use_good = true;
    while (!stop.load()) {
      if (fault::kEnabled && chaos_rng.Uniform() < 0.3) {
        fault::Arm(fault::kSiteServeWorkerStall, fault::Kind::kClockStall,
                   /*after=*/0, /*times=*/2, /*magnitude=*/0.005);
      }
      if (fault::kEnabled && chaos_rng.Uniform() < 0.3) {
        // A slow shadow candidate parks a mirroring worker in real time;
        // primary deadlines and the breaker must stay blind to it.
        fault::Arm(fault::kSiteServeShadowStall, fault::Kind::kClockStall,
                   /*after=*/0, /*times=*/2, /*magnitude=*/0.010);
      }
      if (fault::kEnabled && chaos_rng.Uniform() < 0.3) {
        // Hostile-traffic drift skew: drained samples turn all-OOV with
        // extreme scores, forcing alert raise edges and shadow dismissal.
        fault::Arm(fault::kSiteServeDriftSkew, fault::Kind::kPoisonTensor,
                   /*after=*/0, /*times=*/2);
      }
      const Status status =
          service.ReloadModel(use_good ? good : corrupt);
      if (status.ok()) {
        ++chaos_reload_ok;
      } else {
        ++chaos_reload_rejected;
      }
      use_good = !use_good;
      // Shadow lifecycle churn: restage (the drift alerts above keep
      // auto-dismissing it), sometimes attempt promotion — a success
      // publishes via the reload path, a refusal is typed evidence —
      // sometimes dismiss by hand.
      const double shadow_pick = chaos_rng.Uniform();
      if (shadow_pick < 0.5) {
        (void)service.LoadShadowModel(good);
      } else if (shadow_pick < 0.6) {
        const Status promote = service.PromoteShadow();
        if (promote.ok()) {
          ++chaos_promote_ok;
        } else if (promote.message().find("refused") != std::string::npos) {
          // Evidence-based refusal; "no shadow candidate staged" (a drift
          // alert dismissed it first) is not a promotion attempt.
          ++chaos_promote_refused;
        }
      } else if (shadow_pick < 0.65) {
        service.DismissShadow("chaos dismissal");
      }
      // Concurrent observability reads must never tear or deadlock.
      (void)service.Ready();
      (void)service.counters();
      (void)service.CounterSnapshot();
      (void)service.GaugeSnapshot();
      (void)service.DriftAlertActive();
      (void)service.DriftSnapshot();
      (void)service.DriftMetricsSnapshot();
      (void)service.ShadowActive();
      (void)service.ShadowSnapshot();
      (void)service.incidents();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  stop.store(true);
  for (std::thread& s : submitters) s.join();
  chaos.join();
  const int drift_skew_hits = fault::HitCount(fault::kSiteServeDriftSkew);
  const int shadow_stall_hits =
      fault::HitCount(fault::kSiteServeShadowStall);
  if (fault::kEnabled) fault::DisarmAll();
  service.Shutdown();

  // Invariant 1: every ticket terminal — Wait() returning at all is the
  // no-hang assertion (a wedge here trips the ctest timeout).
  int64_t total = 0;
  int64_t ok = 0;
  int64_t invalid = 0;
  for (const auto& per_thread : issued) {
    for (const Issued& entry : per_thread) {
      const serve::PredictResult& result = entry.ticket->Wait();
      ++total;
      if (result.code == ServeCode::kOk) ++ok;
      if (result.code == ServeCode::kInvalidArgument) ++invalid;
      if (!entry.valid) {
        EXPECT_EQ(result.code, ServeCode::kInvalidArgument);
      }
      EXPECT_GE(result.latency_seconds, 0.0);
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(ok, 0) << "soak produced no successful predictions";
  EXPECT_GT(invalid, 0) << "traffic mix should include malformed rows";

  // Invariant 2: exact accounting across all counter shards.
  const serve::ServeCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, total);
  EXPECT_EQ(counters.Terminal(), counters.submitted)
      << "torn counters: submitted=" << counters.submitted
      << " terminal=" << counters.Terminal();

  // Invariant 3: reload churn behaved — valid reloads published, corrupt
  // ones rejected, and neither took the service down. Successful shadow
  // promotions publish through the same reload path.
  EXPECT_EQ(counters.reloads_ok, chaos_reload_ok + chaos_promote_ok);
  EXPECT_EQ(counters.reloads_rejected, chaos_reload_rejected);
  EXPECT_GT(counters.reloads_ok, 0);
  EXPECT_GT(counters.reloads_rejected, 0);
  EXPECT_FALSE(service.incidents().empty());

  // Shadow/drift churn accounting: every promotion attempt resolved to a
  // typed outcome, and the drift monitor stayed enabled throughout.
  EXPECT_EQ(counters.shadow_promotions_ok, chaos_promote_ok);
  EXPECT_EQ(counters.shadow_promotions_refused, chaos_promote_refused);
  EXPECT_GT(counters.shadow_loads, 0);
  EXPECT_TRUE(service.DriftSnapshot().enabled);

  if (fault::kEnabled) {
    // The armed fault sites were actually consulted: drained samples ran
    // through the skew site and mirroring workers through the stall site.
    EXPECT_GT(drift_skew_hits, 0)
        << "chaos armed serve/drift_skew but no drained sample consulted it";
    EXPECT_GT(shadow_stall_hits, 0)
        << "chaos armed serve/shadow_stall but no mirror consulted it";
  }
}

}  // namespace
}  // namespace armnet
