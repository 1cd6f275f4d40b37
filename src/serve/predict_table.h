#ifndef ARMNET_SERVE_PREDICT_TABLE_H_
#define ARMNET_SERVE_PREDICT_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/loader.h"
#include "serve/service.h"
#include "util/status.h"

namespace armnet::serve {

// Bulk scoring operator (DESIGN.md §15): a CSV of raw field cells in,
// a CSV of scored rows out, through the SAME PredictionService path live
// traffic takes — validate → map → micro-batch queue → batched no-grad
// forward — so bulk scoring exercises (and is protected by) the breaker,
// degradation ladder, and accounting identity. Rows are submitted in
// bounded waves so a table never floods the admission queue past what the
// caller allows.
//
// Row-error handling reuses the loader's policy vocabulary: a row the
// FeatureSpace rejects (wrong arity, unparsable numeric) is a row error —
// kStrict fails the whole operation with a line-numbered Status, kSkip
// drops and counts it, kQuarantine also appends the raw line to
// `quarantine_path`. Service-level outcomes (overload, deadline, breaker
// unavailability) are NOT row errors: the row is emitted with its typed
// code and empty score columns, and counted in the report.

struct PredictTableOptions {
  data::RowErrorPolicy policy = data::RowErrorPolicy::kStrict;
  // Destination for raw offending lines under kQuarantine (appended, like
  // the loader's quarantine sink).
  std::string quarantine_path;
  // Cap on per-row diagnostics retained in PredictTableReport::errors.
  int64_t max_error_messages = 20;
  char delim = ',';
  bool has_header = true;
  // Per-row deadline handed to Submit; < 0 uses the service default.
  double deadline_seconds = -1;
  // Rows in flight at once. Keep at or below the service queue capacity or
  // the overflow comes back kOverloaded (typed, counted, not fatal).
  int64_t wave_size = 256;
};

struct PredictTableReport {
  int64_t rows_read = 0;       // data rows in the input table
  int64_t rows_submitted = 0;  // tickets actually handed to the service
  int64_t rows_ok = 0;         // scored rows written (includes degraded)
  int64_t rows_degraded = 0;   // subset of rows_ok answered by fallback/prior
  int64_t rows_invalid = 0;    // kInvalidArgument outcomes (row errors)
  int64_t rows_rejected = 0;   // overload / deadline / unavailable outcomes
  int64_t rows_skipped = 0;    // row errors dropped (kSkip and kQuarantine)
  int64_t rows_quarantined = 0;
  // "<path>:<row>: ..." diagnostics, capped at max_error_messages. Row
  // numbers count data rows (the loader's blank-line handling means raw
  // file line numbers are not recoverable from a parsed table).
  std::vector<std::string> errors;
};

// Scores every row of `csv_path` through `service` and writes
// "logit,probability,code,degraded" rows to `out_path` (one output row per
// scored or service-rejected input row, in input order). The service must
// have a running worker (or a concurrent DrainOnce pump) — PredictTable
// blocks on the tickets it submits. On a kStrict row error the operation
// waits out its in-flight tickets, writes nothing, and returns the
// line-numbered error. `report` may be null.
Status PredictTable(PredictionService& service, const std::string& csv_path,
                    const std::string& out_path,
                    const PredictTableOptions& options,
                    PredictTableReport* report = nullptr);

}  // namespace armnet::serve

#endif  // ARMNET_SERVE_PREDICT_TABLE_H_
