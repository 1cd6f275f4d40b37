#include "autograd/entmax.h"

#include <algorithm>

#include "tensor/entmax.h"
#include "tensor/kernels.h"

namespace armnet::ag {

Variable Entmax(const Variable& z, float alpha) {
  Tensor out = tmath::EntmaxLastDim(z.value(), alpha);
  Tensor p = out;
  return MakeFromOp(
      std::move(out), {z}, [z, p, alpha](const Tensor& g) mutable {
        if (!z.requires_grad()) return;
        const int64_t d = p.dim(-1);
        const int64_t rows = p.numel() / d;
        Tensor dz(p.shape());
        const float* pg = g.data();
        float* pd = dz.data();
        // s_i = p_i^{2−α} on the support, 0 off it; softmax (α=1) gives
        // s = p. Stash s in dz.
        if (alpha == 1.0f) {
          std::copy(p.data(), p.data() + p.numel(), pd);
        } else {
          kernels::VecSupportPow(p.data(), 2.0f - alpha, pd, p.numel());
        }
        for (int64_t r = 0; r < rows; ++r) {
          const float* grow = pg + r * d;
          float* drow = pd + r * d;
          double s_dot_g = 0;
          double s_sum = 0;
          for (int64_t j = 0; j < d; ++j) {
            s_dot_g += static_cast<double>(drow[j]) * grow[j];
            s_sum += drow[j];
          }
          const float correction =
              alpha == 1.0f ? static_cast<float>(s_dot_g)
                            : static_cast<float>(s_dot_g / s_sum);
          for (int64_t j = 0; j < d; ++j) {
            drow[j] = drow[j] * (grow[j] - correction);
          }
        }
        z.AccumulateGrad(dz);
      });
}

}  // namespace armnet::ag
