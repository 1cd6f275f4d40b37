#include <cmath>

#include "autograd/grad_mode.h"
#include "interpret/attribution.h"
#include "util/rng.h"

namespace armnet::interpret {

namespace {

// Solves (A) x = b for symmetric positive-definite-ish A via Gaussian
// elimination with partial pivoting. Sizes here are tiny (m+1 <= ~50).
std::vector<double> SolveLinear(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    // Pivot.
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    ARMNET_CHECK(std::abs(diag) > 1e-12) << "singular LIME system";
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] / diag;
      if (factor == 0) continue;
      for (size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a[ri][c] * x[c];
    x[ri] = acc / a[ri][ri];
  }
  return x;
}

}  // namespace

Attribution LimeAttribution(models::TabularModel& model,
                            const data::Dataset& background,
                            const data::Dataset& dataset, int64_t row,
                            const LimeConfig& config) {
  ARMNET_CHECK_GT(background.size(), 0);
  const int m = dataset.num_fields();
  Rng rng(config.seed + static_cast<uint64_t>(row) * 1000003ULL);

  // Build the perturbed batch: sample 0 keeps the instance intact, the rest
  // flip a random subset of fields to a random background row's values.
  const int n = config.num_samples;
  data::Batch batch;
  batch.batch_size = n;
  batch.num_fields = m;
  batch.ids.resize(static_cast<size_t>(n) * static_cast<size_t>(m));
  batch.values.resize(static_cast<size_t>(n) * static_cast<size_t>(m));
  batch.labels.assign(static_cast<size_t>(n), 0.0f);
  std::vector<std::vector<int8_t>> mask(
      static_cast<size_t>(n), std::vector<int8_t>(static_cast<size_t>(m), 1));
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < m; ++f) {
      const size_t pos =
          static_cast<size_t>(i) * static_cast<size_t>(m) +
          static_cast<size_t>(f);
      const bool keep = i == 0 || rng.Bernoulli(0.5);
      if (keep) {
        batch.ids[pos] = dataset.id_at(row, f);
        batch.values[pos] = dataset.value_at(row, f);
      } else {
        const int64_t source = rng.UniformInt(background.size());
        batch.ids[pos] = background.id_at(source, f);
        batch.values[pos] = background.value_at(source, f);
        mask[static_cast<size_t>(i)][static_cast<size_t>(f)] = 0;
      }
    }
  }

  nn::TrainingModeGuard eval_mode(model, /*training=*/false);
  NoGradGuard no_grad;
  Rng eval_rng(0);
  Variable out = model.Forward(batch, eval_rng);
  const Tensor& logits = out.value();

  // Locality kernel over the number of flipped fields.
  const double width =
      config.kernel_width * std::sqrt(static_cast<double>(m));
  std::vector<double> weights(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int flipped = 0;
    for (int f = 0; f < m; ++f) {
      flipped += mask[static_cast<size_t>(i)][static_cast<size_t>(f)] == 0;
    }
    const double d = static_cast<double>(flipped);
    weights[static_cast<size_t>(i)] = std::exp(-d * d / (width * width));
  }

  // Weighted ridge regression: design is [mask, 1] (m + 1 coefficients).
  const size_t dim = static_cast<size_t>(m) + 1;
  std::vector<std::vector<double>> xtx(dim, std::vector<double>(dim, 0.0));
  std::vector<double> xty(dim, 0.0);
  std::vector<double> x(dim);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < m; ++f) {
      x[static_cast<size_t>(f)] =
          mask[static_cast<size_t>(i)][static_cast<size_t>(f)];
    }
    x[dim - 1] = 1.0;
    const double w = weights[static_cast<size_t>(i)];
    const double y = logits[i];
    for (size_t a = 0; a < dim; ++a) {
      if (x[a] == 0) continue;
      xty[a] += w * x[a] * y;
      for (size_t b = 0; b < dim; ++b) xtx[a][b] += w * x[a] * x[b];
    }
  }
  for (size_t a = 0; a < dim; ++a) xtx[a][a] += config.ridge_lambda;
  const std::vector<double> beta = SolveLinear(std::move(xtx), std::move(xty));

  Attribution attribution(static_cast<size_t>(m));
  double total = 0;
  for (int f = 0; f < m; ++f) {
    attribution[static_cast<size_t>(f)] =
        std::abs(beta[static_cast<size_t>(f)]);
    total += attribution[static_cast<size_t>(f)];
  }
  if (total > 0) {
    for (double& v : attribution) v /= total;
  }
  return attribution;
}

}  // namespace armnet::interpret
