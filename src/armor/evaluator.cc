#include "armor/evaluator.h"

#include <cmath>
#include <limits>

#include "autograd/grad_mode.h"
#include "data/batcher.h"
#include "metrics/metrics.h"

namespace armnet::armor {

std::vector<float> PredictLogits(models::TabularModel& model,
                                 const data::Dataset& dataset,
                                 int64_t batch_size) {
  nn::TrainingModeGuard eval_mode(model, /*training=*/false);
  // Tape-free inference: no autograd nodes are recorded, so each batch's
  // intermediates die with the batch.
  NoGradGuard no_grad;
  Rng rng(0);  // eval mode uses no randomness; any seed works
  std::vector<float> logits;
  logits.reserve(static_cast<size_t>(dataset.size()));

  data::Batcher batcher(dataset, batch_size, /*shuffle=*/false, Rng(0));
  data::Batch batch;
  while (batcher.Next(&batch)) {
    Variable out = model.Forward(batch, rng);
    const Tensor& values = out.value();
    ARMNET_CHECK_EQ(values.numel(), batch.batch_size);
    for (int64_t i = 0; i < values.numel(); ++i) logits.push_back(values[i]);
  }
  return logits;
}

EvalResult Evaluate(models::TabularModel& model, const data::Dataset& dataset,
                    int64_t batch_size) {
  EvalResult result;
  const autograd::TapeStats tape_before = autograd::GetTapeStats();
  const std::vector<float> logits = PredictLogits(model, dataset, batch_size);
  const autograd::TapeStats tape_after = autograd::GetTapeStats();
  result.tape_nodes_recorded =
      tape_after.nodes_recorded - tape_before.nodes_recorded;
  result.tape_nodes_elided = tape_after.nodes_elided - tape_before.nodes_elided;

  for (const float logit : logits) {
    if (!std::isfinite(logit)) ++result.non_finite_logits;
  }
  if (result.non_finite_logits > 0) {
    // The metrics layer rejects non-finite scores loudly (AUC's sort
    // comparator has no ordering for NaN); a diverged model instead
    // surfaces here as NaN metrics for the caller's divergence handling.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    result.auc = nan;
    result.logloss = nan;
    result.accuracy = nan;
    result.rmse = nan;
    return result;
  }

  std::vector<float> labels(static_cast<size_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    labels[static_cast<size_t>(i)] = dataset.label_at(i);
  }
  result.auc = metrics::Auc(logits, labels);
  result.logloss = metrics::LogLoss(logits, labels);
  result.accuracy = metrics::Accuracy(logits, labels);
  result.rmse = metrics::Rmse(logits, labels);
  return result;
}

}  // namespace armnet::armor
