// Tests for the execution-mode layer (DESIGN.md §9): thread-local grad
// mode with RAII guards, the tape-free inference path, Detach, and the
// bit-identical-eval + zero-tape-nodes invariants of the armor evaluator.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "armor/evaluator.h"
#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/arm_net.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "nn/module.h"

namespace armnet {
namespace {

Variable Param(Shape shape, Rng& rng) {
  return Variable(Tensor::Normal(std::move(shape), 0, 1, rng),
                  /*requires_grad=*/true);
}

// --- Grad mode semantics --------------------------------------------------

TEST(GradModeTest, DefaultsToEnabled) { EXPECT_TRUE(GradMode::IsEnabled()); }

TEST(GradModeTest, NoGradGuardElidesTape) {
  Rng rng(1);
  Variable x = Param(Shape({4}), rng);
  autograd::ResetTapeStats();
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(GradMode::IsEnabled());
    Variable y = ag::MulScalar(x, 2.0f);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_FLOAT_EQ(y.value()[0], 2.0f * x.value()[0]);
  }
  EXPECT_TRUE(GradMode::IsEnabled());
  const autograd::TapeStats stats = autograd::GetTapeStats();
  EXPECT_EQ(stats.nodes_recorded, 0);
  EXPECT_EQ(stats.nodes_elided, 1);
}

TEST(GradModeTest, GuardsNestAndRestore) {
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradMode::IsEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradMode::IsEnabled());
    }
    // The inner guard restores the outer guard's state, not "enabled".
    EXPECT_FALSE(GradMode::IsEnabled());
  }
  EXPECT_TRUE(GradMode::IsEnabled());
}

TEST(GradModeTest, EnableGradGuardReenablesInsideNoGrad) {
  Rng rng(2);
  Variable x = Param(Shape({3}), rng);
  NoGradGuard no_grad;
  {
    EnableGradGuard enable;
    EXPECT_TRUE(GradMode::IsEnabled());
    Variable y = ag::SumAll(ag::Square(x));
    EXPECT_TRUE(y.requires_grad());
    y.Backward();
    EXPECT_TRUE(x.has_grad());
  }
  EXPECT_FALSE(GradMode::IsEnabled());
}

TEST(GradModeTest, ConstantInputsAreNotCountedAsElided) {
  autograd::ResetTapeStats();
  NoGradGuard no_grad;
  Variable a = ag::Constant(Tensor::Ones(Shape({3})));
  Variable b = ag::Add(a, a);
  EXPECT_FALSE(b.requires_grad());
  // Nothing required grad, so nothing was "elided" — the op would not have
  // recorded a node even with grad mode on.
  EXPECT_EQ(autograd::GetTapeStats().nodes_elided, 0);
}

TEST(GradModeTest, ModeIsThreadLocal) {
  NoGradGuard no_grad;
  std::atomic<bool> other_thread_enabled{false};
  std::thread other(
      [&] { other_thread_enabled = GradMode::IsEnabled(); });
  other.join();
  EXPECT_TRUE(other_thread_enabled) << "grad mode leaked across threads";
}

TEST(GradModeTest, DetachSharesValueButBreaksGraph) {
  Rng rng(3);
  Variable x = Param(Shape({2}), rng);
  Variable y = ag::MulScalar(x, 3.0f);
  Variable detached = y.Detach();
  EXPECT_FALSE(detached.requires_grad());
  // Same storage, not a copy.
  EXPECT_EQ(detached.value().data(), y.value().data());
  // Gradients do not flow through the detached handle.
  Variable z = ag::SumAll(ag::Square(detached));
  z.Backward();
  EXPECT_FALSE(x.has_grad());
}

TEST(GradModeDeathTest, BackwardOnUntrackedGraphAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(4);
  Variable x = Param(Shape({2}), rng);
  Variable y;
  {
    NoGradGuard no_grad;
    y = ag::SumAll(ag::Square(x));
  }
  EXPECT_DEATH(y.Backward(), "untracked");
}

TEST(GradModeTest, TrainingStillRecordsAndDifferentiates) {
  // The refactor must not disturb the default taped path.
  Rng rng(5);
  Variable x = Param(Shape({1}), rng);
  autograd::ResetTapeStats();
  Variable y = ag::Square(ag::MulScalar(x, 3.0f));
  ag::SumAll(y).Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_NEAR(x.grad()[0], 18.0f * x.value()[0], 1e-3);
  EXPECT_GT(autograd::GetTapeStats().nodes_recorded, 0);
}

// --- Training-mode RAII guard ---------------------------------------------

class ModeProbe : public nn::Module {
 public:
  ModeProbe() { RegisterModule(&child_); }
  const nn::Module& child() const { return child_; }

 private:
  class Leaf : public nn::Module {};
  Leaf child_;
};

TEST(TrainingModeGuardTest, RestoresPriorModeRecursively) {
  ModeProbe model;
  model.SetTraining(true);
  {
    nn::TrainingModeGuard eval_mode(model, /*training=*/false);
    EXPECT_FALSE(model.training());
    EXPECT_FALSE(model.child().training());
  }
  EXPECT_TRUE(model.training());
  EXPECT_TRUE(model.child().training());

  model.SetTraining(false);
  {
    nn::TrainingModeGuard eval_mode(model, /*training=*/false);
    EXPECT_FALSE(model.training());
  }
  EXPECT_FALSE(model.training());
}

// --- End-to-end evaluator invariants --------------------------------------

data::SyntheticDataset SmallDataset() {
  data::SyntheticSpec spec;
  spec.name = "exec-mode";
  spec.fields = {{"f0", data::FieldType::kCategorical, 12},
                 {"f1", data::FieldType::kCategorical, 10},
                 {"f2", data::FieldType::kCategorical, 8},
                 {"f3", data::FieldType::kNumerical, 1}};
  spec.num_tuples = 256;
  spec.interactions = {{{0, 1}, 2.0f}};
  spec.seed = 11;
  return data::GenerateSynthetic(spec);
}

TEST(ExecutionModeTest, EvalOutputsBitIdenticalWithAndWithoutGuards) {
  data::SyntheticDataset synthetic = SmallDataset();
  Rng rng(12);
  core::ArmNetConfig config;
  config.num_heads = 2;
  config.neurons_per_head = 8;
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), config, rng);

  // Reference pass: plain taped eval, no guard.
  model.SetTraining(false);
  std::vector<float> reference;
  {
    Rng eval_rng(0);
    data::Batcher batcher(synthetic.dataset, 64, /*shuffle=*/false, Rng(0));
    data::Batch batch;
    while (batcher.Next(&batch)) {
      Variable out = model.Forward(batch, eval_rng);
      for (int64_t i = 0; i < out.value().numel(); ++i) {
        reference.push_back(out.value()[i]);
      }
    }
  }
  model.SetTraining(true);

  // Refactored pass: PredictLogits (NoGradGuard inside).
  const std::vector<float> guarded =
      armor::PredictLogits(model, synthetic.dataset, 64);

  ASSERT_EQ(reference.size(), guarded.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    // Bitwise identical: the execution mode must not change numerics.
    EXPECT_EQ(reference[i], guarded[i]) << "logit " << i << " diverged";
  }
}

TEST(ExecutionModeTest, EvaluatorRecordsZeroTapeNodes) {
  data::SyntheticDataset synthetic = SmallDataset();
  Rng rng(13);
  core::ArmNetConfig config;
  config.num_heads = 2;
  config.neurons_per_head = 8;
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), config, rng);

  autograd::ResetTapeStats();
  (void)armor::PredictLogits(model, synthetic.dataset, 64);
  const autograd::TapeStats stats = autograd::GetTapeStats();
  EXPECT_EQ(stats.nodes_recorded, 0)
      << "evaluator pass must be tape-free under NoGradGuard";
  EXPECT_GT(stats.nodes_elided, 0)
      << "the model's parameters require grad, so elisions must show up";
  // The guard restored recording for subsequent training.
  EXPECT_TRUE(GradMode::IsEnabled());
  EXPECT_TRUE(model.training()) << "evaluator must restore training mode";
}

}  // namespace
}  // namespace armnet
