#include <cmath>
#include <numeric>

#include "autograd/grad_mode.h"
#include "interpret/attribution.h"
#include "util/rng.h"

namespace armnet::interpret {

Attribution ShapAttribution(models::TabularModel& model,
                            const data::Dataset& background,
                            const data::Dataset& dataset, int64_t row,
                            const ShapConfig& config) {
  ARMNET_CHECK_GT(background.size(), 0);
  const int m = dataset.num_fields();
  Rng rng(config.seed + static_cast<uint64_t>(row) * 1000003ULL);

  // One batched forward evaluates every prefix of every permutation:
  // for permutation p and step t, the first t fields of p take the
  // instance's values and the rest take a (fixed per permutation) random
  // background row. phi_j averages f(prefix ∪ {j}) − f(prefix).
  const int p = config.num_permutations;
  const int steps = m + 1;
  data::Batch batch;
  batch.batch_size = static_cast<int64_t>(p) * steps;
  batch.num_fields = m;
  batch.ids.resize(static_cast<size_t>(batch.batch_size) *
                   static_cast<size_t>(m));
  batch.values.resize(batch.ids.size());
  batch.labels.assign(static_cast<size_t>(batch.batch_size), 0.0f);

  std::vector<std::vector<int>> permutations(
      static_cast<size_t>(p), std::vector<int>(static_cast<size_t>(m)));
  for (int pi = 0; pi < p; ++pi) {
    auto& perm = permutations[static_cast<size_t>(pi)];
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(perm);
    const int64_t source = rng.UniformInt(background.size());
    for (int t = 0; t < steps; ++t) {
      const size_t base =
          (static_cast<size_t>(pi) * static_cast<size_t>(steps) +
           static_cast<size_t>(t)) *
          static_cast<size_t>(m);
      // Fields at permutation positions < t come from the instance.
      std::vector<bool> present(static_cast<size_t>(m), false);
      for (int s = 0; s < t; ++s) {
        present[static_cast<size_t>(perm[static_cast<size_t>(s)])] = true;
      }
      for (int f = 0; f < m; ++f) {
        const size_t pos = base + static_cast<size_t>(f);
        if (present[static_cast<size_t>(f)]) {
          batch.ids[pos] = dataset.id_at(row, f);
          batch.values[pos] = dataset.value_at(row, f);
        } else {
          batch.ids[pos] = background.id_at(source, f);
          batch.values[pos] = background.value_at(source, f);
        }
      }
    }
  }

  nn::TrainingModeGuard eval_mode(model, /*training=*/false);
  NoGradGuard no_grad;
  Rng eval_rng(0);
  Variable out = model.Forward(batch, eval_rng);
  const Tensor& logits = out.value();

  std::vector<double> phi(static_cast<size_t>(m), 0.0);
  for (int pi = 0; pi < p; ++pi) {
    const auto& perm = permutations[static_cast<size_t>(pi)];
    for (int t = 0; t < m; ++t) {
      const int64_t before = static_cast<int64_t>(pi) * steps + t;
      const int64_t after = before + 1;
      const double marginal = static_cast<double>(logits[after]) -
                              static_cast<double>(logits[before]);
      phi[static_cast<size_t>(perm[static_cast<size_t>(t)])] += marginal;
    }
  }

  Attribution attribution(static_cast<size_t>(m));
  double total = 0;
  for (int f = 0; f < m; ++f) {
    attribution[static_cast<size_t>(f)] =
        std::abs(phi[static_cast<size_t>(f)]) / p;
    total += attribution[static_cast<size_t>(f)];
  }
  if (total > 0) {
    for (double& v : attribution) v /= total;
  }
  return attribution;
}

}  // namespace armnet::interpret
