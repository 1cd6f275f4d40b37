#include "serve/predict_table.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/csv.h"
#include "util/string_util.h"

namespace armnet::serve {

namespace {

void RecordError(const PredictTableOptions& options,
                 PredictTableReport* report, const std::string& message) {
  if (report == nullptr) return;
  if (static_cast<int64_t>(report->errors.size()) <
      options.max_error_messages) {
    report->errors.push_back(message);
  }
}

}  // namespace

Status PredictTable(PredictionService& service, const std::string& csv_path,
                    const std::string& out_path,
                    const PredictTableOptions& options,
                    PredictTableReport* report) {
  PredictTableReport local_report;
  if (report == nullptr) report = &local_report;
  *report = PredictTableReport();

  if (options.policy == data::RowErrorPolicy::kQuarantine &&
      options.quarantine_path.empty()) {
    return Status::Error("kQuarantine policy needs a quarantine_path");
  }

  StatusOr<CsvTable> table =
      ReadCsv(csv_path, options.delim, options.has_header);
  if (!table.ok()) return table.status();
  const std::vector<std::vector<std::string>>& rows = table.value().rows;
  report->rows_read = static_cast<int64_t>(rows.size());

  std::vector<std::string> out_lines;
  out_lines.reserve(rows.size() + 1);
  out_lines.push_back("logit,probability,code,degraded");
  std::vector<std::string> quarantine_lines;
  Status strict_error;

  const int64_t wave_size = std::max<int64_t>(options.wave_size, 1);
  struct InFlight {
    int64_t row = 0;  // 1-based data-row number
    std::shared_ptr<PendingPrediction> ticket;
    const std::vector<std::string>* cells = nullptr;
  };
  std::vector<InFlight> wave;
  wave.reserve(static_cast<size_t>(wave_size));

  size_t next = 0;
  while (next < rows.size() && strict_error.ok()) {
    // Submit one wave, then wait it out before the next: in-flight work is
    // bounded, and a kStrict failure never leaves an unwaited ticket.
    wave.clear();
    while (next < rows.size() &&
           static_cast<int64_t>(wave.size()) < wave_size) {
      const std::vector<std::string>& cells = rows[next];
      InFlight entry;
      entry.row = static_cast<int64_t>(next) + 1;
      entry.cells = &cells;
      entry.ticket = service.Submit(cells, options.deadline_seconds);
      ++report->rows_submitted;
      wave.push_back(std::move(entry));
      ++next;
    }
    for (InFlight& entry : wave) {
      const PredictResult& result = entry.ticket->Wait();
      switch (result.code) {
        case ServeCode::kOk:
          ++report->rows_ok;
          if (result.degraded) ++report->rows_degraded;
          out_lines.push_back(StrFormat("%.9g,%.9g,%s,%d", result.logit,
                                        result.probability,
                                        ServeCodeName(result.code),
                                        result.degraded ? 1 : 0));
          break;
        case ServeCode::kInvalidArgument: {
          ++report->rows_invalid;
          const std::string message =
              StrFormat("%s:%lld: %s", csv_path.c_str(),
                        static_cast<long long>(entry.row),
                        result.message.c_str());
          if (options.policy == data::RowErrorPolicy::kStrict) {
            // First failure wins; the remaining tickets of this wave are
            // still waited out above, just no longer submitted.
            if (strict_error.ok()) strict_error = Status::Error(message);
          } else {
            ++report->rows_skipped;
            RecordError(options, report, message);
            if (options.policy == data::RowErrorPolicy::kQuarantine) {
              ++report->rows_quarantined;
              quarantine_lines.push_back(CsvRow(*entry.cells, options.delim));
            }
          }
          break;
        }
        default:
          // Service-level outcome: typed, never a row error. The row keeps
          // its slot in the output with empty score columns.
          ++report->rows_rejected;
          RecordError(options, report,
                      StrFormat("%s:%lld: %s: %s", csv_path.c_str(),
                                static_cast<long long>(entry.row),
                                ServeCodeName(result.code),
                                result.message.c_str()));
          out_lines.push_back(
              StrFormat(",,%s,0", ServeCodeName(result.code)));
          break;
      }
    }
  }

  if (!strict_error.ok()) return strict_error;

  for (const std::string& line : quarantine_lines) {
    Status appended = AppendLine(options.quarantine_path, line);
    if (!appended.ok()) return appended;
  }
  return WriteLines(out_path, out_lines);
}

}  // namespace armnet::serve
