#include "autograd/variable.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "autograd/grad_mode.h"
#include "tensor/kernels.h"

namespace armnet {

using autograd_internal::Node;
using autograd_internal::VariableImpl;

namespace {

std::atomic<int64_t>& SeqCounter() {
  static std::atomic<int64_t> counter{0};
  return counter;
}

}  // namespace

void Variable::AccumulateGrad(const Tensor& g) const {
  ARMNET_DCHECK(defined());
  ARMNET_DCHECK(g.shape() == shape());
  if (!impl_->grad.defined()) {
    impl_->grad = g.Clone();
  } else {
    kernels::VecAxpy(1.0f, g.data(), impl_->grad.data(), impl_->grad.numel());
  }
}

void Variable::Backward(const Tensor& seed) {
  ARMNET_CHECK(defined());
  ARMNET_CHECK(!impl_->untracked)
      << "Backward() on an untracked graph: this Variable was computed "
         "under NoGradGuard, so no tape was recorded. Re-run the forward "
         "pass with grad mode enabled (or drop the guard) to differentiate.";
  ARMNET_CHECK(seed.shape() == shape())
      << "Backward seed shape " << seed.shape().ToString()
      << " does not match value shape " << shape().ToString();
  AccumulateGrad(seed);
  if (impl_->creator == nullptr) return;

  // Collect all reachable tape nodes.
  std::vector<Node*> nodes;
  std::unordered_set<Node*> visited;
  std::vector<Node*> stack{impl_->creator.get()};
  visited.insert(impl_->creator.get());
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (const auto& input : node->inputs) {
      Node* parent = input->creator.get();
      if (parent != nullptr && visited.insert(parent).second) {
        stack.push_back(parent);
      }
    }
  }

  // Descending creation order is a reverse topological order: an op's output
  // is always created after all of its inputs.
  std::sort(nodes.begin(), nodes.end(),
            [](const Node* a, const Node* b) { return a->seq > b->seq; });

  for (Node* node : nodes) {
    auto output = node->output.lock();
    // The output impl is kept alive by whichever downstream node consumed
    // it, or by the root; a dead output means its grad can't affect the
    // result, as can an output that never received a gradient.
    if (output == nullptr || !output->grad.defined()) continue;
    // Backward-boundary shape contract: the gradient flowing into an op's
    // backward must match the shape its forward produced.
    ARMNET_DCHECK(output->grad.shape() == output->value.shape());
    node->backward(output->grad);
  }
}

Variable MakeFromOp(Tensor value, const std::vector<Variable>& inputs,
                    std::function<void(const Tensor& grad_out)> backward) {
  // Forward-boundary contract: ops must produce a real tensor and may only
  // consume real variables.
  ARMNET_DCHECK(value.defined());
  bool needs_grad = false;
  bool untracked_input = false;
  for (const Variable& input : inputs) {
    ARMNET_CHECK(input.defined()) << "op input is a null Variable";
    needs_grad = needs_grad || input.requires_grad();
    untracked_input = untracked_input || input.impl()->untracked;
  }
  if (!GradMode::IsEnabled()) {
    // Tape-free execution: no Node, no backward closure, no shared_ptr
    // retention of the inputs. Ops that would have recorded a node — or
    // that consume the output of one — are marked untracked so Backward()
    // on them fails with context instead of silently producing a zero
    // gradient. The flag propagates through the whole no-grad chain.
    Variable result(std::move(value), /*requires_grad=*/false);
    if (needs_grad || untracked_input) {
      result.impl()->untracked = true;
      if (needs_grad) autograd::internal::BumpNodesElided();
    }
    return result;
  }

  Variable result(std::move(value), needs_grad);
  if (!needs_grad) return result;

  autograd::internal::BumpNodesRecorded();
  auto node = std::make_shared<Node>();
  node->seq = SeqCounter().fetch_add(1, std::memory_order_relaxed);
  node->inputs.reserve(inputs.size());
  for (const Variable& input : inputs) node->inputs.push_back(input.impl());
  node->output = result.impl();
  node->backward = std::move(backward);
  result.impl()->creator = std::move(node);
  return result;
}

}  // namespace armnet
