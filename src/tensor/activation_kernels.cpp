// Compiled with -ffp-contract=off, -fno-math-errno and -fno-trapping-math
// (src/tensor/CMakeLists.txt): every multiply-add below is an explicit
// std::fma or two roundings at every tier, and the selects vectorize. Each
// tier is the same branch-free inline body, vectorized by the compiler under
// its target attribute; IEEE operations round identically in scalar and
// vector registers, so the tiers are bit-equal.
#include "tensor/activation_kernels.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace cppflare::tensor {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGeluC3A = static_cast<float>(0.7978845608028654 * 3 * 0.044715);

// tanh(a) rounds to 1 in float once 1 - tanh(a) < 2^-25, i.e. a > 13 ln 2
// (9.0109); from here on the kernel returns exactly ±1.
constexpr float kTanhSaturation = 9.02f;

constexpr float kLog2e = 1.44269504088896341f;
constexpr float kRoundShift = 0x1.8p23f;  // adding it rounds to an integer
constexpr float kLn2Hi = 0.693359375f;    // ln 2 = kLn2Hi + kLn2Lo (Cody–Waite)
constexpr float kLn2Lo = -2.12194440e-4f;

[[gnu::always_inline]] inline float tanh_body(float u) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(u);
  const float a = std::bit_cast<float>(bits & 0x7fffffffu);
  // Clamped so the polynomial never sees Inf or NaN.
  const float ac = a < kTanhSaturation ? a : kTanhSaturation;
  // e = expm1(x) = 2^n (expm1(r) + 1) - 1 with x = 2a = n ln 2 + r,
  // |r| <= ln 2 / 2, n in [0, 26].
  const float x = ac + ac;
  const float nf = (x * kLog2e + kRoundShift) - kRoundShift;
  float r = std::fma(nf, -kLn2Hi, x);
  r = std::fma(nf, -kLn2Lo, r);
  // expm1(r) = r + r^2 (1/2! + r/3! + ... + r^6/8!).
  float q = 1.0f / 40320.0f;
  q = std::fma(q, r, 1.0f / 5040.0f);
  q = std::fma(q, r, 1.0f / 720.0f);
  q = std::fma(q, r, 1.0f / 120.0f);
  q = std::fma(q, r, 1.0f / 24.0f);
  q = std::fma(q, r, 1.0f / 6.0f);
  q = std::fma(q, r, 0.5f);
  const float p = std::fma(q, r * r, r);
  const float scale =
      std::bit_cast<float>((static_cast<std::int32_t>(nf) + 127) << 23);
  const float e = std::fma(scale, p, scale - 1.0f);
  float t = e / (e + 2.0f);
  t = a >= kTanhSaturation ? 1.0f : t;
  t = a == a ? t : a;  // NaN stays NaN
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(t) | (bits & 0x80000000u));
}

[[gnu::always_inline]] inline void tanh_loop(const float* u, float* out,
                                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh_body(u[i]);
}

[[gnu::always_inline]] inline void gelu_loop(const float* x, const float* dy,
                                             float* out, std::size_t n) {
  if (dy == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const float xv = x[i];
      const float t = tanh_body(kGeluC * std::fma(kGeluA * (xv * xv), xv, xv));
      const float hx = 0.5f * xv;
      out[i] = std::fma(hx, t, hx);  // x/2 (1 + t)
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float xv = x[i];
    const float x2 = xv * xv;
    const float t = tanh_body(kGeluC * std::fma(kGeluA * x2, xv, xv));
    const float hx = 0.5f * xv;
    // gelu' = (1 + t)/2 + x/2 (1 - t^2) du/dx, du/dx = sqrt(2/pi)(1 + 3A x^2)
    const float sech2 = std::fma(-t, t, 1.0f);
    const float du = std::fma(kGeluC3A, x2, kGeluC);
    const float d = std::fma(hx * sech2, du, std::fma(0.5f, t, 0.5f));
    out[i] = std::fma(dy[i], d, out[i]);
  }
}

void tanh_scalar(const float* u, float* out, std::size_t n) { tanh_loop(u, out, n); }

void gelu_scalar(const float* x, const float* dy, float* out, std::size_t n) {
  gelu_loop(x, dy, out, n);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void tanh_avx2(const float* u, float* out,
                                                   std::size_t n) {
  tanh_loop(u, out, n);
}

__attribute__((target("avx2,fma"))) void gelu_avx2(const float* x, const float* dy,
                                                   float* out, std::size_t n) {
  gelu_loop(x, dy, out, n);
}
#endif

}  // namespace

void gelu_rows(GemmKernel kernel, const float* x, const float* dy, float* out,
               std::size_t n) {
#if defined(__x86_64__)
  if (kernel == GemmKernel::kAvx2) return gelu_avx2(x, dy, out, n);
#endif
  gelu_scalar(x, dy, out, n);
}

void tanh_rows(GemmKernel kernel, const float* u, float* out, std::size_t n) {
#if defined(__x86_64__)
  if (kernel == GemmKernel::kAvx2) return tanh_avx2(u, out, n);
#endif
  tanh_scalar(u, out, n);
}

}  // namespace cppflare::tensor
