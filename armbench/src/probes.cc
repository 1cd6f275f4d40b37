#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "autograd/entmax.h"
#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "util/check.h"

namespace armbench {

using armnet::Shape;
using armnet::Variable;
namespace ag = armnet::ag;

namespace {

bool HasShape(const Variable& v, std::initializer_list<int64_t> dims) {
  if (v.shape().rank() != static_cast<int>(dims.size())) return false;
  int i = 0;
  for (int64_t d : dims) {
    if (v.shape().dim(i++) != d) return false;
  }
  return true;
}

}  // namespace

ArmProbe::ArmProbe(armnet::core::ArmNet& model, int64_t num_features)
    : model_(model),
      init_rng_(1),
      embedding_(num_features, model.config().embed_dim, init_rng_) {
  const int64_t ne = model.config().embed_dim;
  int tables = 0;
  for (const Variable& p : model.Parameters()) {
    if (HasShape(p, {num_features, ne})) {
      source_table_ = p;
      ++tables;
    }
  }
  ARMNET_CHECK_EQ(tables, 1) << "cannot identify the embedding table";

  // ArmModule's parameters: W_att [K, ne, ne], Q [K, o, ne], V [K, o, m]
  // (attention_values()) and the temperature [K, 1, 1].
  const armnet::core::ArmModule& arm = model.arm_module();
  const int64_t k = arm.config().num_heads;
  const int64_t o = arm.config().neurons_per_head;
  const void* values_id = arm.attention_values().id();
  int found = 0;
  for (const Variable& p : arm.Parameters()) {
    if (p.id() == values_id) continue;
    if (HasShape(p, {k, 1, 1})) {
      temperature_ = p;
      ++found;
    } else if (HasShape(p, {k, ne, ne}) && !bilinear_.defined()) {
      bilinear_ = p;
      ++found;
    } else if (HasShape(p, {k, o, ne})) {
      queries_ = p;
      ++found;
    }
  }
  ARMNET_CHECK_EQ(found, 3) << "cannot identify ArmModule's parameters";
}

int64_t ArmProbe::EntmaxRows(int64_t batch_size) const {
  const auto& config = model_.arm_module().config();
  return batch_size * config.num_heads * config.neurons_per_head;
}

double ArmProbe::Run(const armnet::data::Batch& batch, Tracer& tracer,
                     int64_t unit, int64_t parent) {
  // The model's table changes every training step; copy it before timing.
  Variable table = embedding_.Parameters()[0];
  std::memcpy(table.mutable_value().data(), source_table_.value().data(),
              sizeof(float) * static_cast<size_t>(source_table_.numel()));

  const armnet::core::ArmModule& arm = model_.arm_module();
  Variable embeddings;
  {
    Scope span(tracer, "core.embed", unit, parent);
    embeddings = embedding_.Forward(batch);
  }
  armnet::core::ArmModule::Output out;
  {
    Scope span(tracer, "core.arm", unit, parent);
    out = arm.Forward(embeddings);
  }

  // ArmModule's alignment scores (Eq. 5), rebuilt from its parameters.
  const int64_t b = batch.batch_size;
  const int64_t m = arm.num_fields();
  const int64_t ne = arm.config().embed_dim;
  Variable e_heads = ag::Reshape(embeddings, Shape({b, 1, m, ne}));
  Variable projected = ag::MatMul(e_heads, ag::Transpose(bilinear_, -2, -1));
  Variable scores = ag::Transpose(
      ag::MatMul(projected, ag::Transpose(queries_, -2, -1)), -2, -1);
  scores = ag::Mul(scores, temperature_);
  Variable gates;
  {
    Scope span(tracer, "tensor.entmax", unit, parent);
    gates = ag::Entmax(scores, arm.config().alpha);
  }

  const armnet::Tensor& mine = gates.value();
  const armnet::Tensor& theirs = out.gates.value();
  ARMNET_CHECK_EQ(mine.numel(), theirs.numel());
  double max_diff = 0;
  for (int64_t i = 0; i < mine.numel(); ++i) {
    max_diff = std::max(
        max_diff, static_cast<double>(std::fabs(mine[i] - theirs[i])));
  }
  return max_diff;
}

void ProbeInference(armnet::core::ArmNet& model, int64_t num_features,
                    const armnet::data::Dataset& rows, int64_t batch_size,
                    int reps, Tracer& tracer, Result* result) {
  ArmProbe probe(model, num_features);
  armnet::nn::TrainingModeGuard eval(model, false);
  armnet::NoGradGuard no_grad;
  armnet::Rng unused(0);
  std::vector<int64_t> picked(static_cast<size_t>(batch_size));
  armnet::data::Batch batch;
  double max_gate_diff = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int64_t i = 0; i < batch_size; ++i) {
      picked[static_cast<size_t>(i)] = (rep * batch_size + i) % rows.size();
    }
    rows.Gather(picked, &batch);
    {
      Scope span(tracer, "core.forward", rep);
      model.Forward(batch, unused);
    }
    max_gate_diff =
        std::max(max_gate_diff, probe.Run(batch, tracer, rep, -1));
  }
  if (!(max_gate_diff <= kGateTolerance)) {
    result->Fail("rebuilt entmax gates differ from ArmModule's by " +
                 std::to_string(max_gate_diff));
  }
  const auto median_of = [&](const char* name) {
    return Median(tracer.SelfTimesMs(name));
  };
  const double entmax_ms = median_of("tensor.entmax");
  result->Layer("core.forward_ms", median_of("core.forward"), "ms");
  result->Layer("core.embed_ms", median_of("core.embed"), "ms");
  result->Layer("core.arm_ms", median_of("core.arm"), "ms");
  result->Layer("tensor.entmax_ms", entmax_ms, "ms");
  result->Layer("tensor.entmax_rows_per_s",
                static_cast<double>(probe.EntmaxRows(batch_size)) /
                    (entmax_ms / 1e3),
                "1/s");
  result->Note("layer probes at a batch of " + std::to_string(batch_size) +
               " rows");
}

}  // namespace armbench
