#ifndef ARMBENCH_PROBES_H_
#define ARMBENCH_PROBES_H_

// Layer probes: calls into the ARM-Net layers' public functions from
// outside the program, each wrapped in a span, on the workload's own model
// and batch.

#include <cstdint>

#include "common.h"
#include "core/arm_net.h"
#include "data/dataset.h"

namespace armbench {

// Largest |difference| allowed between the gates ArmProbe rebuilds and the
// gates ArmModule::Forward produced. The rebuild runs the same ops in the
// same order, so the two agree exactly today; a larger difference means
// ArmModule builds its scores another way, and tensor.entmax_ms would time
// Entmax on some other input. The traced run then fails.
inline constexpr double kGateTolerance = 1e-6;

class ArmProbe {
 public:
  // `model` must outlive the probe.
  ArmProbe(armnet::core::ArmNet& model, int64_t num_features);

  // Times, in the caller's grad mode and as spans under `parent`:
  //   core.embed     FeaturesEmbedding::Forward (a standalone embedding
  //                  holding a copy of the model's table)
  //   core.arm       the model's ArmModule::Forward on those embeddings
  //   tensor.entmax  ag::Entmax on the score tensor ArmModule gates, rebuilt
  //                  with public ops from arm_module()'s parameters
  // Returns the largest |difference| between the rebuilt gates and the
  // gates ArmModule::Forward produced (0 when the rebuild is faithful).
  double Run(const armnet::data::Batch& batch, Tracer& tracer, int64_t unit,
             int64_t parent);

  // Entmax rows solved per Run: B * K * o.
  int64_t EntmaxRows(int64_t batch_size) const;

 private:
  armnet::core::ArmNet& model_;
  armnet::Rng init_rng_;
  armnet::models::FeaturesEmbedding embedding_;
  armnet::Variable source_table_;
  armnet::Variable bilinear_, queries_, temperature_;
};

// The layers of no-grad, eval-mode inference: on `reps` batches of
// `batch_size` rows cycled from `rows`, times ArmNet::Forward (span
// core.forward) and ArmProbe::Run, then records core.forward_ms,
// core.embed_ms, core.arm_ms, tensor.entmax_ms and tensor.entmax_rows_per_s.
// Fails `result` when a rebuild is off by more than kGateTolerance.
void ProbeInference(armnet::core::ArmNet& model, int64_t num_features,
                    const armnet::data::Dataset& rows, int64_t batch_size,
                    int reps, Tracer& tracer, Result* result);

}  // namespace armbench

#endif  // ARMBENCH_PROBES_H_
