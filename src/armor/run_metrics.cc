#include "armor/run_metrics.h"

#include <utility>

#include "util/json.h"

namespace armnet::armor {

RunMetrics CaptureRunMetrics(const TensorPool* pool) {
  RunMetrics metrics;
  metrics.tape = autograd::GetTapeStats();
  if (pool != nullptr) {
    metrics.has_pool = true;
    metrics.pool = pool->stats();
  }
  metrics.scopes = prof::ScopeSnapshot();
  metrics.counters = prof::CounterSnapshot();
  return metrics;
}

RunMetrics CaptureRunMetrics(
    const TensorPool* pool, std::vector<prof::CounterStats> serve_counters,
    std::vector<std::pair<std::string, double>> serve_gauges,
    std::vector<std::pair<std::string, double>> drift_metrics) {
  RunMetrics metrics = CaptureRunMetrics(pool);
  metrics.has_serve = true;
  metrics.serve = std::move(serve_counters);
  metrics.serve_gauges = std::move(serve_gauges);
  if (!drift_metrics.empty()) {
    metrics.has_drift = true;
    metrics.drift = std::move(drift_metrics);
  }
  return metrics;
}

std::string RunMetricsJson(const RunMetrics& metrics) {
  JsonWriter w;
  w.BeginObject();
  w.Key("tape").BeginObject();
  w.Key("nodes_recorded").Int(metrics.tape.nodes_recorded);
  w.Key("nodes_elided").Int(metrics.tape.nodes_elided);
  w.EndObject();
  if (metrics.has_pool) {
    w.Key("pool").BeginObject();
    w.Key("hits").Int(metrics.pool.hits);
    w.Key("misses").Int(metrics.pool.misses);
    w.Key("returns").Int(metrics.pool.returns);
    w.Key("dropped").Int(metrics.pool.dropped);
    w.Key("bytes_served").Int(metrics.pool.bytes_served);
    w.Key("bytes_pooled").Int(metrics.pool.bytes_pooled);
    w.EndObject();
  }
  w.Key("scopes").BeginArray();
  for (const prof::ScopeStats& s : metrics.scopes) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("count").Int(s.count);
    w.Key("total_ms").Double(s.total_ms);
    w.Key("min_ms").Double(s.min_ms);
    w.Key("max_ms").Double(s.max_ms);
    w.Key("p50_ms").Double(s.p50_ms);
    w.Key("p99_ms").Double(s.p99_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("counters").BeginArray();
  for (const prof::CounterStats& c : metrics.counters) {
    w.BeginObject();
    w.Key("name").String(c.name);
    w.Key("count").Int(c.count);
    w.EndObject();
  }
  w.EndArray();
  if (metrics.has_serve) {
    w.Key("serve").BeginArray();
    for (const prof::CounterStats& c : metrics.serve) {
      w.BeginObject();
      w.Key("name").String(c.name);
      w.Key("count").Int(c.count);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!metrics.serve_gauges.empty()) {
    w.Key("serve_gauges").BeginArray();
    for (const auto& [name, value] : metrics.serve_gauges) {
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("value").Double(value);
      w.EndObject();
    }
    w.EndArray();
  }
  if (metrics.has_drift) {
    w.Key("drift").BeginArray();
    for (const auto& [name, value] : metrics.drift) {
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("value").Double(value);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

}  // namespace armnet::armor
