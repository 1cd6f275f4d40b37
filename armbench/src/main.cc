// armbench: the ARM-Net benchmark binary. run.py builds it and runs
//
//   armbench --workload <train|score> --seed <n> --seconds <s>
//            --trace <0|1> --work-dir <dir> --out-dir <dir>
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it carries the machine fingerprint. The run
// record (all metrics, sample counts, check details) and, when traced, the
// spans are written under --out-dir. Exit code 0 only when every output
// check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <unistd.h>

#include "common.h"

namespace {

using armbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run prints (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"tuples_per_s", "1/s"},
    {"setup_rss_mb", "MiB"},
};

// The per-layer metrics every traced run prints. A workload that does not
// pass through a layer reports 0 for it (README.md lists which workload
// measures which metric).
constexpr MetricSpec kPerLayer[] = {
    {"tensor.entmax_ms", "ms"},
    {"tensor.entmax_rows_per_s", "1/s"},
    {"core.forward_ms", "ms"},
    {"core.embed_ms", "ms"},
    {"core.arm_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"optim.step_ms", "ms"},
    {"data.batch_ms", "ms"},
    {"armor.eval_ms", "ms"},
    {"armor.val_auc", "auc"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.shed_ratio", "ratio"},
    {"serve.expired_ratio", "ratio"},
    {"serve.overload_ratio", "ratio"},
    {"serve.invalid_ratio", "ratio"},
    {"serve.oov_fields_per_req", "fields"},
    {"data.csv_load_s", "s"},
    {"nn.store_attach_ms", "ms"},
    {"nn.store_bytes_per_row", "bytes"},
    {"serve.predict_table_s", "s"},
    {"trace.overhead.tuples_per_s", "ratio"},
    {"run.peak_rss_mb", "MiB"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "armbench: %s\nusage: armbench --workload "
               "<train|score> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

armbench::Args Parse(int argc, char** argv) {
  armbench::Args args;
  args.work_dir = ".bench_build/work";
  args.out_dir = ".bench_build/out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 3600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  static const std::set<std::string> kWorkloads = {"train", "score"};
  if (!have_workload || kWorkloads.count(args.workload) == 0) {
    Usage("unknown or missing --workload");
  }
  return args;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Picks `specs` out of `measured` in spec order; `fill_missing` reports an
// unmeasured per-layer metric as 0, otherwise a missing metric fails.
template <size_t N>
std::vector<Metric> Select(const MetricSpec (&specs)[N],
                           const std::vector<Metric>& measured,
                           bool fill_missing, armbench::Result* result) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : measured) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr) {
      if (!fill_missing) {
        result->Fail(std::string("metric not measured: ") + spec.name);
      }
      out.push_back({spec.name, 0, spec.unit});
      continue;
    }
    if (found->unit != spec.unit) {
      result->Fail(std::string("unit mismatch for ") + spec.name);
    }
    if (!std::isfinite(found->value)) {
      result->Fail(std::string("non-finite metric ") + spec.name);
      out.push_back({spec.name, 0, spec.unit});
      continue;
    }
    out.push_back(*found);
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const armbench::Args parsed = Parse(argc, argv);
  armbench::Args args = parsed;
  args.work_dir = parsed.work_dir + "/" + parsed.workload + "-" +
                  std::to_string(parsed.seed) + "-" +
                  std::to_string(static_cast<long long>(::getpid()));
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(args.out_dir);

  armbench::Tracer tracer(args.trace);
  armbench::Result result;
  if (args.workload == "train") {
    armbench::RunTrain(args, tracer, &result);
  } else {
    armbench::RunScore(args, tracer, &result);
  }
  result.Layer("run.peak_rss_mb", armbench::PeakRssMb(), "MiB");
  if (result.attempted < 1) result.Fail("nothing was attempted");

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace && !tracer.Write(stem + ".spans.jsonl")) {
    result.Fail("cannot write the spans to " + stem + ".spans.jsonl");
  }
  std::vector<Metric> printed =
      args.trace ? Select(kPerLayer, result.per_layer, true, &result)
                 : Select(kEndToEnd, result.end_to_end, false, &result);

  const std::string fingerprint = armbench::FingerprintJson();
  {
    std::ofstream record(stem + ".json", std::ios::trunc);
    record << "{\"workload\": \"" << args.workload << "\", \"seed\": "
           << args.seed << ", \"seconds\": " << Number(args.seconds)
           << ", \"trace\": " << (args.trace ? 1 : 0)
           << ",\n \"fingerprint\": " << fingerprint
           << ",\n \"end_to_end\": " << MetricsJson(result.end_to_end)
           << ",\n \"per_layer\": " << MetricsJson(result.per_layer)
           << ",\n \"notes\": [";
    for (size_t i = 0; i < result.notes.size(); ++i) {
      record << (i > 0 ? ",\n   \"" : "\n   \"")
             << armbench::JsonEscape(result.notes[i]) << "\"";
    }
    record << "]}\n";
  }
  std::filesystem::remove_all(args.work_dir);

  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              MetricsJson(printed).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
