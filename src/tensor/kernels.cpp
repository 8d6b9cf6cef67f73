// Compiled with -ffp-contract=off (src/tensor/CMakeLists.txt): the only
// multiply-adds are the explicit fused ones below, so every tier and every
// optimization level computes the same chain per output element.
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/error.h"
#include "core/trace.h"
#include "tensor/backend.h"
#include "tensor/gemm_kernel.h"

namespace cppflare::tensor {

namespace {

// Register tile: kMr output rows by kNr output columns (two 8-float vectors).
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;

// One product C[rows, n] += op(A)[rows, depth] * op(B)[depth, n], with
// op(A)(i, p) = a[i * a_row + p * a_col] and op(B) packed: panel q holds
// op(B)(p, 16q + j) at bp[q * 16 * depth + p * 16 + j], zero past column n.
// Without load_c the accumulators start at +0 and C is only written.
struct Product {
  const float* a;
  std::int64_t a_row, a_col;
  const float* bp;
  float* c;
  std::int64_t depth, n;
  bool load_c;
};

/// Computes output rows [i0, i0 + rows), rows <= kMr, across every panel.
using TileFn = void (*)(const Product& pr, std::int64_t i0, std::int64_t rows);

void tile_scalar(const Product& pr, std::int64_t i0, std::int64_t rows) {
  for (std::int64_t j0 = 0; j0 < pr.n; j0 += kNr) {
    const std::int64_t cols = std::min(kNr, pr.n - j0);
    const float* panel = pr.bp + j0 * pr.depth;
    float acc[kMr][kNr] = {};
    for (std::int64_t r = 0; r < rows && pr.load_c; ++r) {
      std::copy_n(pr.c + (i0 + r) * pr.n + j0, cols, acc[r]);
    }
    for (std::int64_t p = 0; p < pr.depth; ++p) {
      const float* bk = panel + p * kNr;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float av = pr.a[(i0 + r) * pr.a_row + p * pr.a_col];
        for (std::int64_t j = 0; j < cols; ++j) acc[r][j] = std::fma(av, bk[j], acc[r][j]);
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy_n(acc[r], cols, pr.c + (i0 + r) * pr.n + j0);
    }
  }
}

#if defined(__x86_64__)
// R rows of 16 accumulators stay in 2R ymm registers for the whole depth
// loop: per step, two panel loads and R broadcasts feed 2R fmas. An edge
// panel (n not a multiple of 16) goes through a zero-padded staging tile,
// so no load or store leaves C. The load of C is a template parameter: a
// runtime branch around it costs the accumulators their registers.
template <int R, bool kLoadC>
__attribute__((target("avx2,fma"))) void tile_avx2_rows(const Product& pr,
                                                        std::int64_t i0) {
  const std::int64_t depth = pr.depth, a_col = pr.a_col;
  const float* arow[R];
  for (int r = 0; r < R; ++r) arow[r] = pr.a + (i0 + r) * pr.a_row;
  for (std::int64_t j0 = 0; j0 < pr.n; j0 += kNr) {
    const std::int64_t cols = std::min(kNr, pr.n - j0);
    float* c0 = pr.c + i0 * pr.n + j0;
    alignas(32) float edge[R][kNr];
    float* crow[R];
    for (int r = 0; r < R; ++r) {
      crow[r] = cols == kNr ? c0 + r * pr.n : edge[r];
      if (kLoadC && cols < kNr) {
        std::fill_n(edge[r], kNr, 0.0f);
        std::copy_n(c0 + r * pr.n, cols, edge[r]);
      }
    }
    __m256 lo[R], hi[R];
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      lo[r] = kLoadC ? _mm256_loadu_ps(crow[r]) : _mm256_setzero_ps();
      hi[r] = kLoadC ? _mm256_loadu_ps(crow[r] + 8) : _mm256_setzero_ps();
    }
    const float* bk = pr.bp + j0 * depth;
    std::int64_t off = 0;
    for (std::int64_t p = 0; p < depth; ++p, bk += kNr, off += a_col) {
      const __m256 b0 = _mm256_load_ps(bk);
      const __m256 b1 = _mm256_load_ps(bk + 8);
#pragma GCC unroll 6
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(arow[r] + off);
        lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
        hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
      }
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(crow[r], lo[r]);
      _mm256_storeu_ps(crow[r] + 8, hi[r]);
      if (cols < kNr) std::copy_n(edge[r], cols, c0 + r * pr.n);
    }
  }
  // -O1 (the sanitizer builds) omits the compiler's own vzeroupper, and
  // dirty upper ymm halves slow every later non-VEX SSE instruction.
  _mm256_zeroupper();
}

template <bool kLoadC>
void tile_avx2_for(const Product& pr, std::int64_t i0, std::int64_t rows) {
  switch (rows) {
    case 1: return tile_avx2_rows<1, kLoadC>(pr, i0);
    case 2: return tile_avx2_rows<2, kLoadC>(pr, i0);
    case 3: return tile_avx2_rows<3, kLoadC>(pr, i0);
    case 4: return tile_avx2_rows<4, kLoadC>(pr, i0);
    case 5: return tile_avx2_rows<5, kLoadC>(pr, i0);
    default: return tile_avx2_rows<6, kLoadC>(pr, i0);
  }
}

void tile_avx2(const Product& pr, std::int64_t i0, std::int64_t rows) {
  if (pr.load_c) return tile_avx2_for<true>(pr, i0, rows);
  tile_avx2_for<false>(pr, i0, rows);
}
#endif

TileFn tile_of(GemmKernel kernel) {
#if defined(__x86_64__)
  if (kernel == GemmKernel::kAvx2) return tile_avx2;
#endif
  (void)kernel;
  return tile_scalar;
}

/// This thread's packing buffer, 64-byte aligned, grown on demand and never
/// shrunk: a steady-state call allocates nothing. Helper chunks read the
/// caller's buffer while the caller waits inside parallel_rows, and a
/// nested GEMM packs into its own thread's buffer.
float* pack_buffer(std::int64_t floats) {
  thread_local std::vector<float> buffer;
  const auto need = static_cast<std::size_t>(floats) + 16;
  if (buffer.size() < need) buffer.resize(need);
  const auto misalign = reinterpret_cast<std::uintptr_t>(buffer.data()) % 64;
  return buffer.data() + (misalign == 0 ? 0 : (64 - misalign) / sizeof(float));
}

/// Packs op(B)(p, j) = b[p * b_row + j * b_col] for p < depth, j < n.
const float* pack_b(const float* b, std::int64_t b_row, std::int64_t b_col,
                    std::int64_t depth, std::int64_t n) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  float* out = pack_buffer(panels * kNr * depth);
  for (std::int64_t q = 0; q < panels; ++q) {
    const std::int64_t j0 = q * kNr;
    const std::int64_t cols = std::min(kNr, n - j0);
    float* panel = out + j0 * depth;
    if (b_col == 1) {
      for (std::int64_t p = 0; p < depth; ++p) {
        float* dst = panel + p * kNr;
        std::copy_n(b + p * b_row + j0, cols, dst);
        std::fill(dst + cols, dst + kNr, 0.0f);
      }
    } else {
      // Transposing pack: read each B row once, scatter down the panel.
      if (cols < kNr) std::fill(panel, panel + depth * kNr, 0.0f);
      for (std::int64_t j = 0; j < cols; ++j) {
        const float* src = b + (j0 + j) * b_col;
        for (std::int64_t p = 0; p < depth; ++p) panel[p * kNr + j] = src[p * b_row];
      }
    }
  }
  return out;
}

/// C[rows, n] (+)= op(A) * op(B) with the strides above; B is packed here,
/// once, before the row panels are dispatched.
void multiply(GemmKernel kernel, GemmOut out, const float* a, std::int64_t a_row,
              std::int64_t a_col, const float* b, std::int64_t b_row,
              std::int64_t b_col, float* c, std::int64_t rows, std::int64_t depth,
              std::int64_t n) {
  if (!gemm_kernel_supported(kernel)) {
    throw Error(std::string("gemm: kernel ") + gemm_kernel_name(kernel) +
                " is not supported on this CPU");
  }
  if (rows <= 0 || n <= 0) return;
  const bool load_c = out == GemmOut::kAccumulate;
  if (depth <= 0) {
    if (!load_c) std::fill_n(c, rows * n, 0.0f);  // the empty sum
    return;
  }
  const Product pr{a, a_row, a_col, pack_b(b, b_row, b_col, depth, n), c, depth, n,
                   load_c};
  const TileFn tile = tile_of(kernel);
  const std::int64_t panels = (rows + kMr - 1) / kMr;
  backend::parallel_rows(panels, 2 * kMr * depth * n,
                         [&pr, tile, rows](std::int64_t s0, std::int64_t s1) {
                           for (std::int64_t s = s0; s < s1; ++s) {
                             tile(pr, s * kMr, std::min(kMr, rows - s * kMr));
                           }
                         });
}

}  // namespace

bool gemm_kernel_supported(GemmKernel kernel) {
#if defined(__x86_64__)
  // __builtin_cpu_supports also checks that the OS saves the YMM state.
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return kernel == GemmKernel::kScalar || avx2;
#else
  return kernel == GemmKernel::kScalar;
#endif
}

GemmKernel gemm_active_kernel() {
  static const GemmKernel active = gemm_kernel_supported(GemmKernel::kAvx2)
                                       ? GemmKernel::kAvx2
                                       : GemmKernel::kScalar;
  return active;
}

const char* gemm_kernel_name(GemmKernel kernel) {
  return kernel == GemmKernel::kAvx2 ? "avx2-fma" : "scalar";
}

void gemm_nn_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n, GemmOut out) {
  multiply(kernel, out, a, k, 1, b, n, 1, c, m, k, n);
}

void gemm_nt_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n, GemmOut out) {
  multiply(kernel, out, a, k, 1, b, 1, k, c, m, k, n);
}

void gemm_tn_with(GemmKernel kernel, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n, GemmOut out) {
  // C[K,N]: output row i is column i of A, the reduction runs over A's rows.
  multiply(kernel, out, a, 1, k, b, n, 1, c, k, m, n);
}

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out) {
  CF_TRACE_SPAN("tensor.gemm_nn");
  gemm_nn_with(gemm_active_kernel(), a, b, c, m, k, n, out);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out) {
  CF_TRACE_SPAN("tensor.gemm_nt");
  gemm_nt_with(gemm_active_kernel(), a, b, c, m, k, n, out);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, GemmOut out) {
  CF_TRACE_SPAN("tensor.gemm_tn");
  gemm_tn_with(gemm_active_kernel(), a, b, c, m, k, n, out);
}

}  // namespace cppflare::tensor
