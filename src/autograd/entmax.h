#ifndef ARMNET_AUTOGRAD_ENTMAX_H_
#define ARMNET_AUTOGRAD_ENTMAX_H_

#include "autograd/variable.h"

// α-entmax (Peters, Niculae, Martins — ACL 2019), the sparse softmax family
// used by ARM-Net's gated attention (paper Equations 2 and 5).
//
//   α-entmax(z) = argmax_{p in simplex} pᵀz + H^T_α(p)
//
// α = 1 recovers softmax (dense); α = 2 is sparsemax; larger α is sparser.
// The forward pass (tmath::EntmaxLastDim, tensor/entmax.h) solves for the
// threshold τ such that p_i = [(α−1)z_i − τ]_+^{1/(α−1)} sums to one:
//   * α = 1: closed-form softmax,
//   * α = 2: exact sort-based sparsemax (Martins & Astudillo 2016),
//   * α = 1.5: exact sort-based closed form,
//   * other α > 1: safeguarded Newton on τ, then renormalized.
//
// Backward uses the closed-form Jacobian-vector product from the entmax
// paper: with s_i = p_i^{2−α} on the support (0 elsewhere),
//   dz = s ⊙ (g − ⟨s, g⟩ / ⟨s, 1⟩).

namespace armnet::ag {

// Differentiable α-entmax over the last dimension.
Variable Entmax(const Variable& z, float alpha);

}  // namespace armnet::ag

#endif  // ARMNET_AUTOGRAD_ENTMAX_H_
