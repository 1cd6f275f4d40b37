// Tests for the execution-mode layer (DESIGN.md §9): thread-local grad
// mode with RAII guards, the tape-free inference path, Detach, the pooled
// storage allocator, and the bit-identical-eval + zero-tape-nodes
// invariants of the armor evaluator.

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
#include "tensor/storage_pool.h"

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

// --- Storage pool ---------------------------------------------------------

TEST(TensorPoolTest, RecyclesBuffersAndCounts) {
  TensorPool pool;
  ScopedTensorPool scoped(pool);
  {
    Tensor t{Shape({100})};
    EXPECT_EQ(t.numel(), 100);
  }  // buffer returns to the pool
  TensorPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.returns, 1);
  EXPECT_GT(stats.bytes_pooled, 0);

  {
    Tensor t{Shape({100})};  // same bucket: served from the free list
    EXPECT_EQ(t.numel(), 100);
  }
  stats = pool.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.returns, 2);
}

TEST(TensorPoolTest, BucketsShareNearbySizes) {
  TensorPool pool;
  ScopedTensorPool scoped(pool);
  { Tensor t{Shape({120})}; }
  // 100 and 120 both round up to the 128-float bucket.
  { Tensor t{Shape({100})}; }
  EXPECT_EQ(pool.stats().hits, 1);
}

TEST(TensorPoolTest, RecycledBuffersAreZeroFilled) {
  TensorPool pool;
  ScopedTensorPool scoped(pool);
  {
    Tensor t{Shape({16})};
    t.Fill(42.0f);
  }
  Tensor t{Shape({16})};
  ASSERT_EQ(pool.stats().hits, 1) << "expected a recycled buffer";
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorPoolTest, CloneThroughPoolIsExact) {
  TensorPool pool;
  ScopedTensorPool scoped(pool);
  Rng rng(6);
  Tensor src = Tensor::Normal(Shape({33}), 0, 1, rng);
  { Tensor scratch{Shape({33})}; }  // seed the bucket with a dirty buffer
  Tensor copy = src.Clone();
  EXPECT_NE(copy.data(), src.data());
  for (int64_t i = 0; i < src.numel(); ++i) EXPECT_EQ(copy[i], src[i]);
}

TEST(TensorPoolTest, InactiveWithoutScope) {
  TensorPool pool;
  { Tensor t{Shape({8})}; }  // no scope installed: heap allocation
  const TensorPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0);
}

TEST(TensorPoolTest, ScopesNest) {
  TensorPool outer;
  TensorPool inner;
  ScopedTensorPool outer_scope(outer);
  {
    ScopedTensorPool inner_scope(inner);
    Tensor t{Shape({8})};
  }
  { Tensor t{Shape({8})}; }
  EXPECT_EQ(inner.stats().misses, 1);
  EXPECT_EQ(outer.stats().misses, 1);
}

TEST(TensorPoolTest, EscapedTensorSurvivesPoolDestruction) {
  Tensor escaped;
  {
    TensorPool pool;
    ScopedTensorPool scoped(pool);
    escaped = Tensor::Full(Shape({32}), 7.0f);
  }  // pool destroyed while `escaped` still holds a pooled buffer
  for (int64_t i = 0; i < escaped.numel(); ++i) EXPECT_EQ(escaped[i], 7.0f);
}

TEST(TensorPoolTest, ConcurrentParallelForWorkersHammerOnePool) {
  // TSan-preset stress: many workers allocate, fill, and release tensors of
  // colliding bucket sizes through one shared pool.
  TensorPool pool;
  constexpr int kWorkers = 4;
  constexpr int64_t kTasks = 256;
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ScopedTensorPool scoped(pool);
      for (int64_t i = w; i < kTasks; i += kWorkers) {
        const int64_t n = 16 + (i % 7) * 16;
        Tensor t{Shape({n})};
        t.Fill(static_cast<float>(i));
        Tensor copy = t.Clone();
        if (copy[0] == static_cast<float>(i)) {
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(checked.load(), kTasks);
  const TensorPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * kTasks);
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

  // Reference pass: plain taped eval, no guard, no pool.
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

  // Refactored pass: PredictLogits (NoGradGuard + TensorPool inside).
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
