#ifndef ARMBENCH_COMMON_H_
#define ARMBENCH_COMMON_H_

// Shared pieces of the ARM-Net benchmark: command line, the benchmark's own
// input generator, span tracing, statistics and the result line.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace armbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for generated inputs and artifacts; removed at exit.
  std::string work_dir;
  // Where the traced run writes its spans and every run its record.
  std::string out_dir;
};

// Seconds on the steady clock since the first call in this process.
double Now();

// The benchmark's own generator (splitmix64), so the inputs do not depend
// on any random number code inside the program under test.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  double Normal();

 private:
  uint64_t state_;
};

uint64_t Mix(uint64_t x);

// One column of a generated table. Categorical columns draw a skewed index
// in [0, cardinality) and print it as "<prefix><index>"; numerical columns
// draw a value in [0, 100).
struct Column {
  std::string name;
  bool numerical = false;
  int64_t cardinality = 0;
};

// Frappe layout (m = 10, all categorical, 5,382 categories in total).
std::vector<Column> FrappeColumns();
// Criteo layout (m = 39: 13 numerical then 26 categorical). `scale`
// multiplies the categorical cardinalities.
std::vector<Column> CriteoColumns(double scale);

// Draws rows of string cells plus a label from a fixed logistic model over
// the columns: per-category and per-numeric main effects and a few planted
// pairwise interactions. The model does not depend on the seed, only the
// sampled rows do, so every seed poses a task of the same difficulty.
class TableGen {
 public:
  TableGen(std::vector<Column> columns, uint64_t seed);
  const std::vector<Column>& columns() const { return columns_; }
  // Fills `cells` (one per column) and returns the label.
  int Row(std::vector<std::string>* cells);
  // Category index `index` of column `col` (used to enumerate vocabularies).
  std::string Token(int col, int64_t index) const;

 private:
  int64_t DrawIndex(const Column& column);

  std::vector<Column> columns_;
  BenchRng rng_;
};

// Writes "label,<columns...>" plus `rows` rows from `gen` to `path`.
void WriteTableCsv(TableGen& gen, int64_t rows, const std::string& path);

// ARM-Net at the paper's Table 3 configuration: K = 4, o = 64, n_e = 10,
// alpha = 1.7.
armnet::core::ArmNetConfig Table3Config();

// --- tracing --------------------------------------------------------------

// In-memory spans, written out when the run ends. A span has a name, start
// and end (seconds, Now()), the span that caused it (-1 for none) and the
// step or request it belongs to. Thread-safe; a disabled tracer records
// nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    int64_t unit = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span now; returns its id (or -1 when disabled).
  int64_t Begin(const std::string& name, int64_t unit, int64_t parent = -1);
  void End(int64_t id);
  // Records a span whose times are already known.
  int64_t Record(const std::string& name, double start, double end,
                 int64_t unit, int64_t parent = -1);

  // Self time of every span with this name (duration minus the part of it
  // its children cover), in milliseconds.
  std::vector<double> SelfTimesMs(const std::string& name) const;
  // Writes every span as JSON lines.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int64_t unit,
        int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, unit, parent)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);

// --- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main(): the end-to-end metrics of the run
// (untraced units), the per-layer metrics (traced run only), the counts of
// the result line, and human-readable notes (sample counts, check
// details) for the run record.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  // Records a failed output check; the run then reports correct = false.
  void Fail(const std::string& why);
  void Note(const std::string& note);
};

// Peak resident set size of this process so far, MiB.
double PeakRssMb();
// Cores, ISA flags, compiler and build type, as a JSON object.
std::string FingerprintJson();
std::string JsonEscape(const std::string& s);
// Size of a file in bytes (-1 if it cannot be read).
int64_t FileBytes(const std::string& path);

// Returns the heap memory freed so far to the OS (malloc_trim).
void ReleaseFreedMemory();

// Runs `setup` at least 5 times and until 2 s have passed (the last run's
// state is kept by the caller) and returns the wall time of each run in
// seconds; their median is setup_s. A short set-up is thus timed many times
// over a window long enough that a brief stall of the host moves few of
// them. Afterwards the memory the earlier set-ups freed is returned to the
// OS: whether the allocator kept it would otherwise decide, run by run, how
// far the measured phase's allocations raise the peak resident set.
template <typename F>
std::vector<double> TimeSetup(F&& setup) {
  std::vector<double> times;
  const double begin = Now();
  while (times.size() < 5 || Now() - begin < 2.0) {
    const double start = Now();
    setup();
    times.push_back(Now() - start);
  }
  ReleaseFreedMemory();
  return times;
}

// Records setup_s, the median of `times`, and notes the count and range.
void AddSetup(const std::vector<double>& times, Result* result);

// Workloads. Each fills `result` and returns normally; a failed check is
// recorded with Result::Fail.
void RunTrain(const Args& args, Tracer& tracer, Result* result);
void RunScore(const Args& args, Tracer& tracer, Result* result);

}  // namespace armbench

#endif  // ARMBENCH_COMMON_H_
