// Table 3 — Training and inference throughput of ARM-Net (tuples/second)
// across the five datasets, on both execution backends.
//
// The paper contrasts one CPU against a GeForce RTX 2080 Ti; this machine
// has no GPU, so the "device" axis is the scalar reference backend vs the
// AVX2+FMA SIMD backend of the same kernels (DESIGN.md §3). The paper's
// claims preserved here: throughput decreases roughly linearly with the
// number of attribute fields m, and a faster execution substrate gives a
// large constant-factor speedup.
//
// Benchmark model per the paper: K=4, o=64, n_e=10; batch size 16,384
// (scaled down by default for a 1-core box).
//
// Flags: --batch=<n> (default 4096), --batches=<n> measured per cell
// (default 3), --scale=<f> dataset size multiplier (default 0.25),
// --json=<path> to also write the BENCH_table3.json report.

#include "bench/common.h"

#include "autograd/grad_mode.h"
#include "core/arm_net.h"
#include "data/batcher.h"
#include "optim/adam.h"
#include "tensor/backend.h"
#include "util/stopwatch.h"

namespace {

using namespace armnet;

struct Throughput {
  double train = 0;
  double inference = 0;
  // Execution-mode observability for the inference loop (DESIGN.md §9):
  // tape nodes must be 0 under NoGradGuard.
  int64_t tape_nodes = 0;
};

Throughput Measure(const data::Dataset& dataset, int64_t batch_size,
                   int num_batches) {
  Rng rng(7);
  core::ArmNetConfig config;
  config.num_heads = 4;
  config.neurons_per_head = 64;
  config.embed_dim = 10;
  config.alpha = 1.7f;
  core::ArmNet model(dataset.schema().num_features(), dataset.num_fields(),
                     config, rng);
  std::vector<Variable> params = model.Parameters();
  optim::Adam optimizer(params, 1e-3f);

  data::Batcher batcher(dataset, batch_size, /*shuffle=*/false, Rng(0));
  data::Batch batch;

  // Warm-up batch (allocator, caches).
  batcher.Next(&batch);
  Rng dropout_rng(1);
  {
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout_rng),
                                      batch.LabelsTensor());
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
  }

  Throughput throughput;
  // Training: forward + backward + Adam step.
  model.SetTraining(true);
  int64_t tuples = 0;
  Stopwatch watch;
  for (int i = 0; i < num_batches; ++i) {
    if (!batcher.Next(&batch)) {
      batcher.Reset();
      batcher.Next(&batch);
    }
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout_rng),
                                      batch.LabelsTensor());
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    tuples += batch.batch_size;
  }
  throughput.train = static_cast<double>(tuples) / watch.ElapsedSeconds();

  // Inference A/B shares one prefetched batch list so both measured loops
  // time model execution only, not synthetic-data gathering.
  model.SetTraining(false);
  std::vector<data::Batch> eval_batches;
  batcher.Reset();
  for (int i = 0; i < num_batches; ++i) {
    data::Batch b;
    if (!batcher.Next(&b)) {
      batcher.Reset();
      batcher.Next(&b);
    }
    eval_batches.push_back(std::move(b));
  }

  // The inference loop is short relative to training, so run it a few
  // times and keep the best pass — a steady state, not whichever pass a
  // scheduler hiccup landed on.
  constexpr int kInferReps = 3;

  // Inference: forward only, eval mode, tape-free — the configuration
  // armor/interpret entry points and the serving layer use.
  const int64_t nodes_before = autograd::GetTapeStats().nodes_recorded;
  for (int rep = 0; rep < kInferReps; ++rep) {
    tuples = 0;
    watch.Restart();
    {
      NoGradGuard no_grad;
      for (const data::Batch& eval_batch : eval_batches) {
        Variable out = model.Forward(eval_batch, dropout_rng);
        tuples += eval_batch.batch_size;
      }
    }
    throughput.inference =
        std::max(throughput.inference,
                 static_cast<double>(tuples) / watch.ElapsedSeconds());
  }
  throughput.tape_nodes =
      autograd::GetTapeStats().nodes_recorded - nodes_before;
  return throughput;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t batch_size = FlagInt(argc, argv, "batch", 4096);
  const int num_batches = static_cast<int>(FlagInt(argc, argv, "batches", 3));
  const double scale = FlagDouble(argc, argv, "scale", 0.25);
  const std::string json_path = FlagValue(argc, argv, "json", "");

  bench::BenchReport report("table3_throughput");
  report.ConfigInt("batch", batch_size);
  report.ConfigInt("batches", num_batches);
  report.ConfigDouble("scale", scale);
  report.ConfigString("simd", SimdAvailable() ? "available" : "unavailable");

  std::printf("=== Table 3: ARM-Net throughput, tuples/s (K=4, o=64, "
              "n_e=10, batch=%lld) ===\n",
              static_cast<long long>(batch_size));
  if (!SimdAvailable()) {
    std::printf("SIMD backend unavailable on this CPU; reporting scalar "
                "only.\n");
  }
  std::printf("%-12s %7s | %12s %12s | %12s %12s | %8s %8s\n", "Dataset",
              "Fields", "train-scalar", "train-simd", "infer-scalar",
              "infer-simd", "spd-trn", "spd-inf");

  // Sort by field count like the paper's presentation.
  std::vector<armnet::data::SyntheticSpec> specs = {
      armnet::data::MovieLensPreset(scale), armnet::data::FrappePreset(scale),
      armnet::data::AvazuPreset(scale), armnet::data::CriteoPreset(scale),
      armnet::data::Diabetes130Preset(scale)};

  int64_t inference_tape_nodes = 0;
  for (auto& spec : specs) {
    // Throughput only needs enough tuples to fill the measured batches.
    spec.num_tuples =
        std::max<int64_t>(spec.num_tuples, batch_size * (num_batches + 1));
    armnet::data::SyntheticDataset synthetic =
        armnet::data::GenerateSynthetic(spec);

    SetBackend(Backend::kScalar);
    const Throughput scalar =
        Measure(synthetic.dataset, batch_size, num_batches);
    Throughput simd;
    if (SimdAvailable()) {
      SetBackend(Backend::kSimd);
      simd = Measure(synthetic.dataset, batch_size, num_batches);
    }
    std::printf("%-12s %7d | %12.0f %12.0f | %12.0f %12.0f | %7.2fx %7.2fx\n",
                spec.name.c_str(), synthetic.dataset.num_fields(),
                scalar.train, simd.train, scalar.inference, simd.inference,
                simd.train > 0 ? simd.train / scalar.train : 0.0,
                simd.inference > 0 ? simd.inference / scalar.inference : 0.0);
    std::fflush(stdout);
    inference_tape_nodes += scalar.tape_nodes + simd.tape_nodes;

    auto add_row = [&](const char* backend, const Throughput& t) {
      armnet::bench::BenchRow& row =
          report.AddRow(spec.name + "/" + backend);
      // Time to push one training batch through fwd+bwd+step, the axis
      // Table 3 reports as tuples/second.
      row.ms_per_batch = t.train > 0
                             ? 1000.0 * static_cast<double>(batch_size) /
                                   t.train
                             : std::numeric_limits<double>::quiet_NaN();
      row.counters.emplace_back("fields", synthetic.dataset.num_fields());
      row.counters.emplace_back("inference_tape_nodes", t.tape_nodes);
      row.metrics.emplace_back("train_tuples_per_s", t.train);
      row.metrics.emplace_back("infer_tuples_per_s", t.inference);
      // ms to serve one inference batch.
      const double interp_ms =
          t.inference > 0
              ? 1000.0 * static_cast<double>(batch_size) / t.inference
              : std::numeric_limits<double>::quiet_NaN();
      row.metrics.emplace_back("interpreted_ms_per_batch", interp_ms);
    };
    add_row("scalar", scalar);
    if (SimdAvailable()) add_row("simd", simd);
  }

  // Execution-mode invariant (DESIGN.md §9): the inference loops above ran
  // under NoGradGuard, so not a single tape node may have been recorded.
  ARMNET_CHECK_EQ(inference_tape_nodes, 0)
      << "inference recorded tape nodes despite NoGradGuard";
  std::printf("\ninference execution mode: 0 tape nodes recorded\n");
  std::printf("\npaper-reference (CPU vs GPU): MovieLens 5,454/131,864 "
              "train; Criteo 661/24,717 train; GPU speedup 23.9x-38.1x\n");
  report.WriteIfRequested(json_path);
  if (SimdAvailable()) SetBackend(Backend::kSimd);
  return 0;
}
