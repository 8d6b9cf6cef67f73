// Raw GEMM kernels on contiguous row-major float buffers.
//
// By default the kernels *accumulate* into C (C += op(A) * op(B)), which is
// what autograd needs when several edges contribute to one gradient buffer.
// GemmOut::kOverwrite computes C = op(A) * op(B) without reading C, so an
// op's forward output needs no zero-fill first.
//
// Contract: each C element is one fused multiply-add chain over the
// reduction index in ascending order, starting from C's prior value —
// c = fma(a_p, b_p, c) for p = 0, 1, ... — or, in overwrite form, from +0
// held in a register: the same bits as accumulating into a zeroed C. The
// result is therefore a pure function of the inputs: it does not depend on
// blocking, on the compute thread budget, on the ISA tier
// (tensor/gemm_kernel.h) or on the build's optimization level.
//
// Implementation: op(B) is packed once per call into 16-column panels; the
// output rows are split into 6-row panels dispatched through the compute
// backend (tensor/backend.h), each producing a 6x16 register tile per B
// panel. Each output row belongs to exactly one chunk.
#pragma once

#include <cstdint>

namespace cppflare::tensor {

/// Whether a kernel adds into C's prior contents or replaces them.
enum class GemmOut : std::uint8_t { kAccumulate, kOverwrite };

/// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out = GemmOut::kAccumulate);

/// C[M,N] += A[M,K] * B[N,K]^T   (i.e. C[i,j] += dot(A row i, B row j))
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out = GemmOut::kAccumulate);

/// C[K,N] += A[M,K]^T * B[M,N]
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out = GemmOut::kAccumulate);

}  // namespace cppflare::tensor
