// Tests for the ARM-Net core: exponential neurons (Eq. 3), the multi-head
// gated attention (Eq. 5-6), gate sparsity, ablation switches, and the
// full-model forward/trace paths.

#include "core/arm_net.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/grad_mode.h"
#include "core/arm_net_plus.h"
#include "data/synthetic.h"
#include "optim/adam.h"

namespace armnet::core {
namespace {

data::SyntheticDataset TinyData(int64_t tuples = 128) {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.fields = {{"a", data::FieldType::kCategorical, 6},
                 {"b", data::FieldType::kCategorical, 5},
                 {"c", data::FieldType::kNumerical, 1},
                 {"d", data::FieldType::kCategorical, 4},
                 {"e", data::FieldType::kCategorical, 3}};
  spec.num_tuples = tuples;
  spec.interactions = {{{0, 1}, 2.0f}};
  spec.seed = 123;
  return data::GenerateSynthetic(spec);
}

data::Batch TinyBatch(const data::Dataset& dataset, int64_t size) {
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < size; ++i) rows.push_back(i);
  data::Batch batch;
  dataset.Gather(rows, &batch);
  return batch;
}

ArmNetConfig SmallConfig() {
  ArmNetConfig config;
  config.embed_dim = 4;
  config.num_heads = 2;
  config.neurons_per_head = 3;
  config.alpha = 1.7f;
  config.hidden = {8};
  return config;
}

TEST(ArmModuleTest, OutputShapes) {
  Rng rng(1);
  ArmNetConfig config = SmallConfig();
  ArmModule module(5, config, rng);
  Variable embeddings =
      ag::Constant(Tensor::Normal(Shape({7, 5, 4}), 0, 1, rng));
  ArmModule::Output out = module.Forward(embeddings);
  EXPECT_EQ(out.cross_features.shape(), Shape({7, 2, 3, 4}));
  EXPECT_EQ(out.gates.shape(), Shape({7, 2, 3, 5}));
  EXPECT_EQ(out.interaction_weights.shape(), Shape({7, 2, 3, 5}));
  EXPECT_EQ(module.total_neurons(), 6);
}

TEST(ArmModuleTest, GatesAreSimplexRows) {
  Rng rng(2);
  ArmNetConfig config = SmallConfig();
  ArmModule module(5, config, rng);
  Variable embeddings =
      ag::Constant(Tensor::Normal(Shape({4, 5, 4}), 0, 1, rng));
  const Tensor gates = module.Forward(embeddings).gates.value();
  const int64_t rows = gates.numel() / 5;
  for (int64_t r = 0; r < rows; ++r) {
    double total = 0;
    for (int64_t j = 0; j < 5; ++j) {
      const float g = gates[r * 5 + j];
      EXPECT_GE(g, 0.0f);
      total += g;
    }
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

TEST(ArmModuleTest, SparserAlphaProducesSparserGates) {
  Rng rng(3);
  Variable embeddings =
      ag::Constant(Tensor::Normal(Shape({16, 5, 4}), 0, 1, rng));
  auto count_zeros = [&](float alpha) {
    ArmNetConfig config = SmallConfig();
    config.alpha = alpha;
    Rng module_rng(9);  // same init across alphas
    ArmModule module(5, config, module_rng);
    const Tensor gates = module.Forward(embeddings).gates.value();
    int zeros = 0;
    for (int64_t i = 0; i < gates.numel(); ++i) zeros += gates[i] == 0.0f;
    return zeros;
  };
  const int dense = count_zeros(1.0f);
  const int moderate = count_zeros(1.7f);
  const int sparse = count_zeros(2.5f);
  EXPECT_EQ(dense, 0);
  EXPECT_LE(moderate, sparse);
}

TEST(ArmModuleTest, ExponentialNeuronIdentity) {
  // y_i = exp(sum_j w_ij e_j) recomputed by hand from the traced weights.
  Rng rng(4);
  ArmNetConfig config = SmallConfig();
  ArmModule module(5, config, rng);
  Tensor e = Tensor::Normal(Shape({2, 5, 4}), 0, 0.5f, rng);
  ArmModule::Output out = module.Forward(ag::Constant(e));
  const Tensor w = out.interaction_weights.value();  // [2, 2, 3, 5]
  const Tensor y = out.cross_features.value();       // [2, 2, 3, 4]
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t k = 0; k < 2; ++k) {
      for (int64_t n = 0; n < 3; ++n) {
        for (int64_t dim = 0; dim < 4; ++dim) {
          double exponent = 0;
          for (int64_t j = 0; j < 5; ++j) {
            exponent += w.at({b, k, n, j}) * e.at({b, j, dim});
          }
          EXPECT_NEAR(y.at({b, k, n, dim}), std::exp(exponent), 1e-3);
        }
      }
    }
  }
}

TEST(ArmModuleTest, GateZeroDeactivatesField) {
  // A field with zero gate contributes exp(0) = multiplicatively nothing:
  // perturbing that field's embedding must not change the neuron output.
  Rng rng(5);
  ArmNetConfig config = SmallConfig();
  config.alpha = 2.0f;  // sparse gates with exact zeros
  ArmModule module(5, config, rng);
  Tensor e = Tensor::Normal(Shape({1, 5, 4}), 0, 1, rng);
  ArmModule::Output out = module.Forward(ag::Constant(e));
  const Tensor gates = out.gates.value();

  // Find a (neuron, field) pair with an exactly-zero gate.
  for (int64_t k = 0; k < 2; ++k) {
    for (int64_t n = 0; n < 3; ++n) {
      for (int64_t j = 0; j < 5; ++j) {
        if (gates.at({0, k, n, j}) != 0.0f) continue;
        Tensor perturbed = e.Clone();
        for (int64_t dim = 0; dim < 4; ++dim) {
          perturbed.at({0, j, dim}) += 0.5f;
        }
        // Perturbing field j can flip OTHER gates; only claim invariance
        // if the gate row is unchanged.
        ArmModule::Output out2 = module.Forward(ag::Constant(perturbed));
        bool same_gates = true;
        for (int64_t jj = 0; jj < 5; ++jj) {
          if (std::abs(out2.gates.value().at({0, k, n, jj}) -
                       gates.at({0, k, n, jj})) > 1e-6f) {
            same_gates = false;
          }
        }
        if (!same_gates) continue;
        for (int64_t dim = 0; dim < 4; ++dim) {
          EXPECT_NEAR(out2.cross_features.value().at({0, k, n, dim}),
                      out.cross_features.value().at({0, k, n, dim}), 1e-4)
              << "neuron (" << k << "," << n << ") field " << j;
        }
        return;  // one verified pair suffices
      }
    }
  }
  GTEST_SKIP() << "no zero gate found with this seed";
}

TEST(ArmModuleTest, NoGateAblationIsInstanceIndependentInWeights) {
  Rng rng(6);
  ArmNetConfig config = SmallConfig();
  config.use_gate = false;
  ArmModule module(5, config, rng);
  Tensor e1 = Tensor::Normal(Shape({1, 5, 4}), 0, 1, rng);
  Tensor e2 = Tensor::Normal(Shape({1, 5, 4}), 0, 1, rng);
  const Tensor w1 =
      module.Forward(ag::Constant(e1)).interaction_weights.value();
  const Tensor w2 =
      module.Forward(ag::Constant(e2)).interaction_weights.value();
  EXPECT_TRUE(w1.AllClose(w2, 0.0f));  // static weights, no recalibration
}

TEST(ArmModuleTest, NoBilinearVariantRuns) {
  Rng rng(7);
  ArmNetConfig config = SmallConfig();
  config.use_bilinear = false;
  ArmModule module(5, config, rng);
  Variable embeddings =
      ag::Constant(Tensor::Normal(Shape({3, 5, 4}), 0, 1, rng));
  ArmModule::Output out = module.Forward(embeddings);
  EXPECT_EQ(out.cross_features.shape(), Shape({3, 2, 3, 4}));
  // Fewer parameters: no [K, ne, ne] matrices.
  Rng rng2(7);
  ArmNetConfig full = SmallConfig();
  ArmModule full_module(5, full, rng2);
  EXPECT_EQ(full_module.ParameterCount() - module.ParameterCount(),
            2 * 4 * 4);
}

TEST(ArmModuleTest, GradientsFlowThroughWholeModule) {
  Rng rng(8);
  ArmNetConfig config = SmallConfig();
  ArmModule module(5, config, rng);
  std::vector<Variable> inputs{
      Variable(Tensor::Normal(Shape({2, 5, 4}), 0, 0.5f, rng), true)};
  auto fn = [&module](std::vector<Variable>& in) {
    return ag::MeanAll(module.Forward(in[0]).cross_features);
  };
  EXPECT_LT(ag::GradCheckMaxError(fn, inputs, 1e-2f), 3e-2);

  // Parameters also receive gradients.
  Variable loss = ag::MeanAll(module.Forward(inputs[0]).cross_features);
  loss.Backward();
  for (const Variable& p : module.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(ArmNetTest, ForwardAndTraceAgree) {
  data::SyntheticDataset synthetic = TinyData();
  Rng rng(9);
  ArmNet model(synthetic.dataset.schema().num_features(),
               synthetic.dataset.num_fields(), SmallConfig(), rng);
  model.SetTraining(false);
  data::Batch batch = TinyBatch(synthetic.dataset, 16);
  Rng dropout(0);
  const Tensor plain = model.Forward(batch, dropout).value();
  ArmModule::Output trace;
  const Tensor traced = model.ForwardWithTrace(batch, dropout, &trace).value();
  EXPECT_TRUE(plain.AllClose(traced, 1e-6f));
  EXPECT_EQ(trace.gates.shape().dim(0), 16);
}

// A NaN in the gate's bilinear map or queries must surface as NaN logits,
// which the serving breaker inspects, and never abort the process inside the
// α-entmax solver.
TEST(ArmNetTest, NanGateWeightGivesNanLogits) {
  data::SyntheticDataset synthetic = TinyData(16);
  data::Batch batch = TinyBatch(synthetic.dataset, 8);
  // ArmModule registers bilinear [K, ne, ne], then queries [K, o, ne].
  for (size_t index : {size_t{0}, size_t{1}}) {
    Rng rng(12);
    ArmNet model(synthetic.dataset.schema().num_features(),
                 synthetic.dataset.num_fields(), SmallConfig(), rng);
    model.SetTraining(false);
    Variable weight = model.arm_module().Parameters()[index];
    ASSERT_EQ(weight.shape().dim(-1), SmallConfig().embed_dim);
    weight.mutable_value()[0] = std::numeric_limits<float>::quiet_NaN();
    NoGradGuard no_grad;
    Rng dropout(0);
    const Tensor logits = model.Forward(batch, dropout).value();
    ASSERT_EQ(logits.numel(), 8);
    for (int64_t i = 0; i < logits.numel(); ++i) {
      EXPECT_TRUE(std::isnan(logits[i])) << "parameter " << index;
    }
  }
}

TEST(ArmNetTest, ParameterCountMatchesArchitecture) {
  data::SyntheticDataset synthetic = TinyData(16);
  Rng rng(10);
  ArmNetConfig config = SmallConfig();
  ArmNet model(synthetic.dataset.schema().num_features(),
               synthetic.dataset.num_fields(), config, rng);
  const int64_t features = synthetic.dataset.schema().num_features();
  const int64_t m = 5, ne = 4, k = 2, o = 3;
  const int64_t embedding = features * ne;
  const int64_t arm =
      k * ne * ne + k * o * ne + k * o * m + k;  // +k: gate temperatures
  const int64_t mlp_in = k * o * ne;
  const int64_t norm = 2 * mlp_in;  // batch-norm gamma + beta
  const int64_t mlp = mlp_in * 8 + 8 + 8 * 1 + 1;
  EXPECT_EQ(model.ParameterCount(), embedding + arm + norm + mlp);
}

TEST(ArmNetTest, LearnsPlantedInteraction) {
  data::SyntheticDataset synthetic = TinyData(512);
  Rng rng(11);
  ArmNetConfig config = SmallConfig();
  ArmNet model(synthetic.dataset.schema().num_features(),
               synthetic.dataset.num_fields(), config, rng);
  optim::Adam adam(model.Parameters(), 1e-2f);
  data::Batch batch = TinyBatch(synthetic.dataset, 256);
  Rng dropout(1);
  const float before = ag::BceWithLogits(model.Forward(batch, dropout),
                                         batch.LabelsTensor())
                           .value()
                           .item();
  for (int step = 0; step < 40; ++step) {
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout),
                                      batch.LabelsTensor());
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  const float after = ag::BceWithLogits(model.Forward(batch, dropout),
                                        batch.LabelsTensor())
                          .value()
                          .item();
  EXPECT_LT(after, before - 0.02f);
}

TEST(ArmNetPlusTest, CombinesTwoTowers) {
  data::SyntheticDataset synthetic = TinyData(64);
  Rng rng(12);
  ArmNetPlus model(synthetic.dataset.schema().num_features(),
                   synthetic.dataset.num_fields(), SmallConfig(), {8}, rng);
  data::Batch batch = TinyBatch(synthetic.dataset, 8);
  Rng dropout(0);
  Variable logits = model.Forward(batch, dropout);
  EXPECT_EQ(logits.numel(), 8);
  Variable loss = ag::BceWithLogits(logits, batch.LabelsTensor());
  loss.Backward();
  // Both towers and the combiner train end-to-end.
  for (const Variable& p : model.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
  // ARM-Net+ = ARM-Net params + DNN tower + 3 combiner scalars.
  Rng rng2(12);
  ArmNet arm_only(synthetic.dataset.schema().num_features(),
                  synthetic.dataset.num_fields(), SmallConfig(), rng2);
  EXPECT_GT(model.ParameterCount(), arm_only.ParameterCount());
}

TEST(ArmConfigTest, InvalidConfigsDie) {
  data::SyntheticDataset synthetic = TinyData(16);
  Rng rng(13);
  ArmNetConfig config = SmallConfig();
  config.alpha = 0.5f;  // entmax requires alpha >= 1
  EXPECT_DEATH(ArmModule(5, config, rng), "alpha");
}

}  // namespace
}  // namespace armnet::core
