#ifndef ARMNET_ARMOR_RUN_METRICS_H_
#define ARMNET_ARMOR_RUN_METRICS_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "tensor/storage_pool.h"
#include "util/profiler.h"

namespace armnet::armor {

// One unified observability snapshot (DESIGN.md §10): the autograd tape
// counters, an optional TensorPool's allocator counters, and — when the
// profiler is compiled in and enabled — every scope timing and invocation
// counter recorded so far. Captured by benches after a measured region and
// by the trainer per epoch; serialized into BENCH_*.json and the epoch
// telemetry JSONL.
struct RunMetrics {
  autograd::TapeStats tape;
  bool has_pool = false;
  TensorPoolStats pool;  // zeros unless a pool was supplied at capture
  std::vector<prof::ScopeStats> scopes;
  std::vector<prof::CounterStats> counters;
  // Prediction-service counters (serve::PredictionService::CounterSnapshot),
  // present when a service was supplied at capture. Unlike `counters` these
  // are always populated — service counters are plain atomics, not gated on
  // the profiler being compiled in.
  bool has_serve = false;
  std::vector<prof::CounterStats> serve;
  // Continuous serving operating-point gauges (adaptive batch wait, windowed
  // p99 — serve::PredictionService::GaugeSnapshot). Counters answer "how
  // many"; these answer "where is the control loop sitting right now".
  std::vector<std::pair<std::string, double>> serve_gauges;
  // Drift/shadow gauges (serve::PredictionService::DriftMetricsSnapshot):
  // per-field windowed OOV/clamp rates vs baseline, score PSI, and the
  // shadow delta statistics. Present when a service was captured with its
  // drift snapshot (the "drift" section of the JSON).
  bool has_drift = false;
  std::vector<std::pair<std::string, double>> drift;
};

// Snapshots the process-wide tape stats and profiler registry, plus `pool`'s
// counters when non-null. Tape and profiler counters are cumulative across
// threads since their last Reset; bracket the workload with
// autograd::ResetTapeStats() / prof::Reset() for per-region deltas.
RunMetrics CaptureRunMetrics(const TensorPool* pool = nullptr);

// As above, additionally embedding a prediction service's counter snapshot
// (the "serve" section of the JSON), optionally its operating-point gauges
// (the "serve_gauges" section) and drift/shadow gauges (the "drift"
// section). Takes the pre-extracted lists so armor does not depend on the
// serve library.
RunMetrics CaptureRunMetrics(
    const TensorPool* pool, std::vector<prof::CounterStats> serve_counters,
    std::vector<std::pair<std::string, double>> serve_gauges = {},
    std::vector<std::pair<std::string, double>> drift_metrics = {});

// Compact single-line JSON object:
//   {"tape":{"nodes_recorded":N,"nodes_elided":N},
//    "pool":{"hits":N,"misses":N,"returns":N,"dropped":N,
//            "bytes_served":N,"bytes_pooled":N},          // if has_pool
//    "scopes":[{"name":s,"count":N,"total_ms":f,"min_ms":f,"max_ms":f,
//               "p50_ms":f,"p99_ms":f},...],
//    "counters":[{"name":s,"count":N},...],
//    "serve":[{"name":s,"count":N},...],                  // if has_serve
//    "serve_gauges":[{"name":s,"value":f},...],           // if non-empty
//    "drift":[{"name":s,"value":f},...]}                  // if has_drift
std::string RunMetricsJson(const RunMetrics& metrics);

}  // namespace armnet::armor

#endif  // ARMNET_ARMOR_RUN_METRICS_H_
