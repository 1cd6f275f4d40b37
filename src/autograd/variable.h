#ifndef ARMNET_AUTOGRAD_VARIABLE_H_
#define ARMNET_AUTOGRAD_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace armnet {

namespace autograd_internal {

struct Node;

// Shared state behind a Variable handle.
struct VariableImpl {
  Tensor value;
  Tensor grad;  // undefined until the first accumulation
  bool requires_grad = false;
  // Set when the op that produced this value had requires_grad inputs but
  // ran with grad mode off (NoGradGuard), so no tape exists behind it.
  // Backward() on such a variable is a programmer error, not a silent no-op.
  bool untracked = false;
  std::shared_ptr<Node> creator;  // null for leaves
};

// One recorded operation on the dynamic tape.
struct Node {
  // Monotonic creation index; Backward() replays nodes in descending order,
  // which is a valid reverse-topological order for a dynamically built DAG.
  int64_t seq = 0;
  // Kept alive so the graph survives even if the user drops intermediates.
  std::vector<std::shared_ptr<VariableImpl>> inputs;
  // Weak to avoid a reference cycle (impl -> creator -> output -> impl).
  std::weak_ptr<VariableImpl> output;
  // Receives d(loss)/d(output) and accumulates into the inputs' grads.
  std::function<void(const Tensor& grad_out)> backward;
};

}  // namespace autograd_internal

// Differentiable tensor: a cheap shared handle to a value, its gradient, and
// its position in the dynamically recorded computation graph.
//
// Usage:
//   Variable w(Tensor::Normal({4, 4}, 0, 0.1, rng), /*requires_grad=*/true);
//   Variable loss = ag::SumAll(ag::MatMul(x, w));
//   loss.Backward();           // w.grad() now holds dloss/dw
//
// Ops live in ops.h (namespace ag). Gradients accumulate across Backward()
// calls until ZeroGrad().
class Variable {
 public:
  // Null handle; defined() is false.
  Variable() = default;

  explicit Variable(Tensor value, bool requires_grad = false)
      : impl_(std::make_shared<autograd_internal::VariableImpl>()) {
    impl_->value = std::move(value);
    impl_->requires_grad = requires_grad;
  }

  bool defined() const { return impl_ != nullptr; }

  const Tensor& value() const {
    ARMNET_DCHECK(defined());
    return impl_->value;
  }

  // Direct mutable access for optimizers' in-place parameter updates. Must
  // only be used on leaf variables (no recorded creator).
  Tensor& mutable_value() {
    ARMNET_DCHECK(defined());
    ARMNET_DCHECK(impl_->creator == nullptr);
    return impl_->value;
  }

  const Shape& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }

  bool requires_grad() const { return defined() && impl_->requires_grad; }
  bool has_grad() const { return defined() && impl_->grad.defined(); }

  const Tensor& grad() const {
    ARMNET_CHECK(has_grad()) << "Variable has no gradient";
    return impl_->grad;
  }

  // Drops the accumulated gradient (next accumulation re-allocates).
  void ZeroGrad() {
    if (defined()) impl_->grad = Tensor();
  }

  // Runs reverse-mode differentiation seeded with ones (typically called on
  // a scalar loss).
  void Backward() { Backward(Tensor::Ones(shape())); }
  // Runs reverse-mode differentiation with an explicit seed gradient.
  void Backward(const Tensor& seed);

  // Adds `g` into this variable's gradient (allocating on first use). Used
  // by op backward implementations; not typically called by user code.
  // Const because Variable is a shared handle: the gradient lives in the
  // shared impl, and backward lambdas hold const captures.
  void AccumulateGrad(const Tensor& g) const;

  // Escape hatch from the graph: a new leaf Variable sharing this value's
  // storage, with requires_grad off and no creator. Gradients never flow
  // through a detached handle; mutations through data() remain visible to
  // both (Tensor storage is shared).
  Variable Detach() const {
    ARMNET_DCHECK(defined());
    return Variable(impl_->value, /*requires_grad=*/false);
  }

  // Identity of the underlying storage; used by optimizers to key state.
  const void* id() const { return impl_.get(); }

  std::shared_ptr<autograd_internal::VariableImpl> impl() const {
    return impl_;
  }

 private:
  std::shared_ptr<autograd_internal::VariableImpl> impl_;
};

// Builds the result variable of a differentiable op. If no input requires
// grad, no tape node is recorded (graph pruning) and `backward` is dropped.
// The same elision applies — regardless of requires_grad — while grad mode
// is off (see autograd/grad_mode.h); the result is then marked untracked so
// a later Backward() fails loudly instead of silently returning zeros.
// `backward` receives d(loss)/d(result) and must accumulate into the inputs
// (checking requires_grad per input).
Variable MakeFromOp(Tensor value, const std::vector<Variable>& inputs,
                    std::function<void(const Tensor& grad_out)> backward);

}  // namespace armnet

#endif  // ARMNET_AUTOGRAD_VARIABLE_H_
