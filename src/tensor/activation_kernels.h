// Row kernels behind the GELU op (internal).
//
// BERT's feed-forward GELU is the tanh approximation
//   gelu(x) = x/2 * (1 + tanh(u)),  u = sqrt(2/pi) * (x + 0.044715 x^3),
// evaluated per element. The tanh here is not libm's: it comes from an
// expm1 polynomial, tanh(a) = e / (e + 2) with e = expm1(2a) for a = |u|,
// and is exactly ±1 once |u| >= 9.02, where tanh rounds to ±1 in float.
// Against a double-precision tanh it is within 3 ulp for every finite
// input (activation_kernels_test sweeps all finite floats). tanh_op and
// sigmoid stay on libm.
//
// The kernels run at the GEMM's ISA tier (tensor/gemm_kernel.h). Each tier
// runs the same branch-free body with explicit std::fma and no contraction,
// so the tiers are bit-identical, and elements are independent, so results
// do not depend on how a caller chunks a row.
#pragma once

#include <cstddef>

#include "tensor/gemm_kernel.h"

namespace cppflare::tensor {

/// Forward when dy is null: out[i] = gelu(x[i]). Backward otherwise:
/// out[i] += dy[i] * gelu'(x[i]). `kernel` must be supported.
void gelu_rows(GemmKernel kernel, const float* x, const float* dy, float* out,
               std::size_t n);

/// out[i] = the tanh gelu_rows uses, of u[i].
void tanh_rows(GemmKernel kernel, const float* u, float* out, std::size_t n);

}  // namespace cppflare::tensor
