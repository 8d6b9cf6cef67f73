// Raw GEMM kernels on contiguous row-major float buffers.
//
// All kernels *accumulate* into C (C += op(A) * op(B)); callers zero C when
// they want a plain product. Accumulating form is what autograd needs when
// several edges contribute to one gradient buffer.
//
// Contract: each C element is one fused multiply-add chain over the
// reduction index in ascending order, starting from C's prior value —
// c = fma(a_p, b_p, c) for p = 0, 1, ... The result is therefore a pure
// function of the inputs: it does not depend on blocking, on the compute
// thread budget, on the ISA tier (tensor/gemm_kernel.h) or on the build's
// optimization level.
//
// Implementation: op(B) is packed once per call into 16-column panels; the
// output rows are split into 6-row panels dispatched through the compute
// backend (tensor/backend.h), each producing a 6x16 register tile per B
// panel. Each output row belongs to exactly one chunk.
#pragma once

#include <cstdint>

namespace cppflare::tensor {

/// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// C[M,N] += A[M,K] * B[N,K]^T   (i.e. C[i,j] += dot(A row i, B row j))
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// C[K,N] += A[M,K]^T * B[M,N]
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

}  // namespace cppflare::tensor
