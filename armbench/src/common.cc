#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>

#include "util/check.h"

namespace armbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t BenchRng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double BenchRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double BenchRng::Normal() {
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::vector<Column> FrappeColumns() {
  return {{"user", false, 957},    {"item", false, 4082},
          {"daytime", false, 7},   {"weekday", false, 7},
          {"isweekend", false, 2}, {"homework", false, 3},
          {"cost", false, 2},      {"weather", false, 9},
          {"country", false, 80},  {"city", false, 233}};
}

std::vector<Column> CriteoColumns(double scale) {
  std::vector<Column> columns;
  for (int i = 1; i <= 13; ++i) {
    columns.push_back({"I" + std::to_string(i), true, 0});
  }
  // Skewed cardinalities like Criteo's: a few very wide fields, many small.
  const int64_t base[26] = {1400, 550,   60000, 40000, 300, 24,   12000,
                            630,  3,     90000, 5600,  50000, 3200, 27,
                            14000, 70000, 10,   5600,  2100, 4,    80000,
                            18,   15,    28000, 100,   18000};
  for (int i = 0; i < 26; ++i) {
    const auto card = std::max<int64_t>(
        2, static_cast<int64_t>(static_cast<double>(base[i]) * scale));
    columns.push_back({"C" + std::to_string(i + 1), false, card});
  }
  return columns;
}

armnet::core::ArmNetConfig Table3Config() {
  armnet::core::ArmNetConfig config;
  config.num_heads = 4;
  config.neurons_per_head = 64;
  config.embed_dim = 10;
  config.alpha = 1.7f;
  return config;
}

namespace {

// Fixed (seed-independent) main effect of category `index` of column `col`.
double CategoryEffect(int col, int64_t index) {
  const uint64_t h = Mix((static_cast<uint64_t>(col) << 40) ^
                         static_cast<uint64_t>(index) ^ 0xA5A5ULL);
  // Uniform in [-1, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

double NumericEffect(int col) { return CategoryEffect(col, 1 << 30) * 2.0; }

}  // namespace

TableGen::TableGen(std::vector<Column> columns, uint64_t seed)
    : columns_(std::move(columns)), rng_(Mix(seed) ^ 0x5EEDULL) {}

int64_t TableGen::DrawIndex(const Column& column) {
  // Skewed: index = card * u^3 puts most mass on the low indices.
  const double u = rng_.Uniform();
  return std::min<int64_t>(
      column.cardinality - 1,
      static_cast<int64_t>(static_cast<double>(column.cardinality) * u * u *
                           u));
}

std::string TableGen::Token(int col, int64_t index) const {
  return columns_[static_cast<size_t>(col)].name + "_" +
         std::to_string(index);
}

int TableGen::Row(std::vector<std::string>* cells) {
  const int m = static_cast<int>(columns_.size());
  cells->resize(static_cast<size_t>(m));
  std::vector<double> x(static_cast<size_t>(m));
  double logit = -0.3;
  for (int f = 0; f < m; ++f) {
    const Column& column = columns_[static_cast<size_t>(f)];
    std::string& cell = (*cells)[static_cast<size_t>(f)];
    if (column.numerical) {
      const double v = 100.0 * rng_.Uniform() * rng_.Uniform();
      x[static_cast<size_t>(f)] = v / 100.0;
      logit += NumericEffect(f) * (v / 100.0 - 0.25);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      cell = buf;
    } else {
      const int64_t index = DrawIndex(column);
      x[static_cast<size_t>(f)] = CategoryEffect(f, index);
      // Low-cardinality fields carry most of the signal, as in the
      // context fields of Frappe.
      const double weight = column.cardinality <= 300 ? 1.6 : 0.5;
      logit += weight * x[static_cast<size_t>(f)];
      cell = Token(f, index);
    }
  }
  // Planted pairwise interactions between neighbouring fields.
  for (int f = 0; f + 1 < m; f += 2) {
    logit += 1.5 * x[static_cast<size_t>(f)] * x[static_cast<size_t>(f + 1)];
  }
  const double p = 1.0 / (1.0 + std::exp(-logit));
  return rng_.Uniform() < p ? 1 : 0;
}

void WriteTableCsv(TableGen& gen, int64_t rows, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  ARMNET_CHECK(out.good()) << "cannot write " << path;
  const auto join = [](std::string line,
                       const std::vector<std::string>& cells) {
    for (const std::string& cell : cells) line += "," + cell;
    return line;
  };
  std::vector<std::string> cells;
  for (const Column& column : gen.columns()) cells.push_back(column.name);
  out << join("label", cells) << '\n';
  for (int64_t r = 0; r < rows; ++r) {
    const int label = gen.Row(&cells);
    out << join(label ? "1" : "0", cells) << '\n';
  }
  ARMNET_CHECK(out.good()) << "write failed: " << path;
}

// --- tracing --------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t unit, int64_t parent) {
  if (!enabled_) return -1;
  const double start = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, unit});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end = end;
}

int64_t Tracer::Record(const std::string& name, double start, double end,
                       int64_t unit, int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, unit});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::SelfTimesMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start, span.end});
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != name) continue;
    // Union of the children's intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end));
    }
    out.push_back((span.end - span.start - covered) * 1e3);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"unit\":%lld}\n",
                  i, JsonEscape(s.name).c_str(), s.start, s.end,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.unit));
    out << buf;
  }
  return out.good();
}

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

// --- result ---------------------------------------------------------------

void Result::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
  std::fprintf(stderr, "armbench: check failed: %s\n", why.c_str());
}

void Result::Note(const std::string& note) {
  notes.push_back(note);
  std::fprintf(stderr, "armbench: %s\n", note.c_str());
}

void ReleaseFreedMemory() { malloc_trim(0); }

void AddSetup(const std::vector<double>& times, Result* result) {
  result->Add("setup_s", Median(times), "s");
  result->Note(std::to_string(times.size()) + " set-ups, " +
               std::to_string(Percentile(times, 0.0)) + " to " +
               std::to_string(Percentile(times, 1.0)) + " s");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string FingerprintJson() {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool fma = __builtin_cpu_supports("fma");
  const bool f16c = __builtin_cpu_supports("f16c");
  std::ostringstream out;
  out << "{\"cores\":" << std::thread::hardware_concurrency()
      << ",\"avx2\":" << (avx2 ? "true" : "false")
      << ",\"fma\":" << (fma ? "true" : "false")
      << ",\"f16c\":" << (f16c ? "true" : "false") << ",\"compiler\":\""
      << JsonEscape(ARMBENCH_COMPILER) << "\",\"build_type\":\""
      << JsonEscape(ARMBENCH_BUILD_TYPE) << "\"}";
  return out.str();
}

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return -1;
  return static_cast<int64_t>(in.tellg());
}

}  // namespace armbench
