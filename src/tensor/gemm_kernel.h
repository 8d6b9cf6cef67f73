// GEMM micro-kernel tiers behind tensor/kernels.h (internal).
//
// Two tiers compute the same products: a portable one built on std::fma and
// an AVX2+FMA one built on a 6x16 register tile. Every output element is one
// fused multiply-add chain over the reduction index in ascending order,
// starting from C's prior value, and fma rounds exactly once, so the tiers
// are bit-identical by construction. The kernels pick one tier per process
// from CPUID (DESIGN.md "GEMM dispatch"), and the GELU row kernel
// (tensor/activation_kernels.h) runs at the same tier. This header exists so
// tests and benches can name a tier and cross-check them. It is not a knob:
// nothing in the runtime selects a tier by configuration.
#pragma once

#include <cstdint>

#include "tensor/kernels.h"

namespace cppflare::tensor {

enum class GemmKernel : std::uint8_t { kScalar, kAvx2 };

inline constexpr GemmKernel kAllGemmKernels[] = {GemmKernel::kScalar,
                                                 GemmKernel::kAvx2};

/// True when this build and this CPU can run `kernel`.
bool gemm_kernel_supported(GemmKernel kernel);

/// The tier gemm_nn/nt/tn use in this process: the widest supported one.
GemmKernel gemm_active_kernel();

/// "scalar" or "avx2-fma".
const char* gemm_kernel_name(GemmKernel kernel);

/// gemm_nn/nt/tn (tensor/kernels.h) computed at `kernel`'s tier, which must
/// be supported.
void gemm_nn_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  GemmOut out = GemmOut::kAccumulate);
void gemm_nt_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  GemmOut out = GemmOut::kAccumulate);
void gemm_tn_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  GemmOut out = GemmOut::kAccumulate);

}  // namespace cppflare::tensor
