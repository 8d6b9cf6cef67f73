// Compiled with -ffp-contract=off, -fno-math-errno and -fno-trapping-math
// (src/flare/CMakeLists.txt): every multiply-add below is an explicit
// std::fma or two roundings at every tier, and sqrt and the selects
// vectorize. The tier functions share one branch-free inline body each,
// vectorized by the compiler under their target attribute; IEEE operations
// round identically in scalar and vector registers, so the tiers are
// bit-equal.
#include "flare/privacy_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/parallel.h"

namespace cppflare::flare {

namespace {

/// Chunks per parallel_for task: 16K words keep a task well above the
/// pool's dispatch cost.
constexpr std::int64_t kChunksPerTask = 16;

[[gnu::always_inline]] inline void quantize_body(const float* values,
                                                 std::uint32_t* words,
                                                 std::size_t n, float scale) {
  for (std::size_t i = 0; i < n; ++i) {
    // All-ones masks rather than branches, so the loop vectorizes.
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(values[i]);
    const std::uint32_t finite = 0u - ((bits & 0x7f800000u) != 0x7f800000u);
    // Exact: a power-of-two scale. An overflow to ±inf saturates below, as
    // the double-precision reference's clamp does.
    const float x = values[i] * scale;
    const std::uint32_t hi = 0u - (x >= 2147483648.0f);
    const std::uint32_t lo = 0u - (x <= -2147483648.0f);
    const float in_range =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) & finite & ~hi & ~lo);
    const auto t = static_cast<std::int32_t>(in_range);  // truncates
    // x - trunc(x) is exact, so ties and 0.5 - ulp are told apart; ties
    // round away from zero like llround.
    const float frac = in_range - static_cast<float>(t);
    const std::uint32_t q = static_cast<std::uint32_t>(t) + (frac >= 0.5f) -
                            (frac <= -0.5f);
    words[i] = ((q & ~hi & ~lo) | (0x7fffffffu & hi) | (0x80000001u & lo)) & finite;
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void quantize_avx2(
    const float* values, std::uint32_t* words, std::size_t n, float scale) {
  quantize_body(values, words, n, scale);
}

__attribute__((target("avx512f"))) void quantize_avx512(
    const float* values, std::uint32_t* words, std::size_t n, float scale) {
  quantize_body(values, words, n, scale);
}
#endif

// (π/2) * 2^-22: u2's 24-bit numerator j maps to angle j * 2π * 2^-24.
constexpr float kQuarterTurnStep = static_cast<float>(1.5707963267948966 * 0x1p-22);

[[gnu::always_inline]] inline void gaussian_body(const std::uint32_t* words,
                                                 std::size_t groups, float* z) {
  for (std::size_t g = 0; g < groups; ++g, words += 32, z += 32) {
    for (int i = 0; i < 16; ++i) {
      // ln u1 = e ln 2 + ln m with m in [sqrt(1/2), sqrt(2)) (Cephes logf).
      const float u1 =
          static_cast<float>(static_cast<std::int32_t>(words[i] >> 8) + 1) * 0x1p-24f;
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(u1);
      const std::int32_t e0 = static_cast<std::int32_t>(bits >> 23) - 126;
      const float m = std::bit_cast<float>((bits & 0x007fffffu) | 0x3f000000u);
      const bool low = m < 0.707106781186547524f;
      const float x = low ? (m + m) - 1.0f : m - 1.0f;
      const float e = static_cast<float>(low ? e0 - 1 : e0);
      const float x2 = x * x;
      float p = 7.0376836292e-2f;
      p = std::fma(p, x, -1.1514610310e-1f);
      p = std::fma(p, x, 1.1676998740e-1f);
      p = std::fma(p, x, -1.2420140846e-1f);
      p = std::fma(p, x, 1.4249322787e-1f);
      p = std::fma(p, x, -1.6668057665e-1f);
      p = std::fma(p, x, 2.0000714765e-1f);
      p = std::fma(p, x, -2.4999993993e-1f);
      p = std::fma(p, x, 3.3333331174e-1f);
      float y = (p * x) * x2;
      y = std::fma(e, -2.12194440e-4f, y);
      y = std::fma(x2, -0.5f, y);
      const float ln = std::fma(e, 0.693359375f, x + y);
      const float r = std::sqrt(-2.0f * ln);

      // 2π u2 = quadrant * π/2 + a with a in [-π/4, π/4), split exactly in
      // integers; sin a and cos a by Cephes sinf/cosf polynomials.
      const auto j = static_cast<std::int32_t>(words[16 + i] >> 8);
      const std::int32_t quadrant = (j + (1 << 21)) >> 22;  // 0..4
      const float a = static_cast<float>(j - (quadrant << 22)) * kQuarterTurnStep;
      const float a2 = a * a;
      float s = -1.9515295891e-4f;
      s = std::fma(s, a2, 8.3321608736e-3f);
      s = std::fma(s, a2, -1.6666654611e-1f);
      s = std::fma(s * a2, a, a);
      float c = 2.443315711809948e-5f;
      c = std::fma(c, a2, -1.388731625493765e-3f);
      c = std::fma(c, a2, 4.166664568298827e-2f);
      c = std::fma(c * a2, a2, std::fma(a2, -0.5f, 1.0f));
      // Rotate by the quadrant: swap on odd quadrants, then flip signs
      // (sin < 0 in quadrants 2-3, cos < 0 in quadrants 1-2).
      const bool swap = (quadrant & 1) != 0;
      const std::uint32_t sin_sign = static_cast<std::uint32_t>(quadrant & 2) << 30;
      const std::uint32_t cos_sign = static_cast<std::uint32_t>((quadrant + 1) & 2) << 30;
      const float sin_t =
          std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? c : s) ^ sin_sign);
      const float cos_t =
          std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? s : c) ^ cos_sign);
      z[i] = r * cos_t;
      z[16 + i] = r * sin_t;
    }
  }
}

void gaussian_scalar(const std::uint32_t* words, std::size_t groups, float* z) {
  gaussian_body(words, groups, z);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void gaussian_avx2(
    const std::uint32_t* words, std::size_t groups, float* z) {
  gaussian_body(words, groups, z);
}

__attribute__((target("avx512f"))) void gaussian_avx512(
    const std::uint32_t* words, std::size_t groups, float* z) {
  gaussian_body(words, groups, z);
}
#endif

}  // namespace

void for_each_chunk(
    nn::StateDict& dict,
    const std::function<void(std::uint64_t, float*, std::size_t)>& fn) {
  // Blob k's values start at flat index offsets[k].
  std::vector<float*> starts;
  std::vector<std::uint64_t> offsets;
  std::uint64_t total = 0;
  for (auto& [name, blob] : dict.entries()) {
    if (blob.values.empty()) continue;
    starts.push_back(blob.values.data());
    offsets.push_back(total);
    total += blob.values.size();
  }
  const auto chunks = static_cast<std::int64_t>(
      (total + kPrivacyChunkWords - 1) / kPrivacyChunkWords);
  // Copies n values between flat index `first` and `staged`, both ways.
  const auto copy = [&](std::uint64_t first, float* staged, std::size_t n,
                        bool to_blobs) {
    auto k = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), first) - offsets.begin() - 1);
    for (std::size_t done = 0; done < n; ++k) {
      const std::uint64_t end = k + 1 < offsets.size() ? offsets[k + 1] : total;
      const std::uint64_t within = first + done - offsets[k];
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - done, end - offsets[k] - within));
      float* blob = starts[k] + within;
      std::memcpy(to_blobs ? blob : staged + done, to_blobs ? staged + done : blob,
                  take * sizeof(float));
      done += take;
    }
  };
  core::parallel_for(0, chunks, kChunksPerTask, [&](std::int64_t begin, std::int64_t end) {
    alignas(64) float staged[kPrivacyChunkWords];
    for (std::int64_t c = begin; c < end; ++c) {
      const std::uint64_t first = static_cast<std::uint64_t>(c) * kPrivacyChunkWords;
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kPrivacyChunkWords, total - first));
      const auto k = static_cast<std::size_t>(
          std::upper_bound(offsets.begin(), offsets.end(), first) - offsets.begin() - 1);
      const std::uint64_t blob_end = k + 1 < offsets.size() ? offsets[k + 1] : total;
      if (first + n <= blob_end) {
        fn(first, starts[k] + (first - offsets[k]), n);
        continue;
      }
      copy(first, staged, n, /*to_blobs=*/false);
      fn(first, staged, n);
      copy(first, staged, n, /*to_blobs=*/true);
    }
  });
}

std::uint32_t quantize(float v, std::int64_t frac_bits) {
  const double scaled = static_cast<double>(v) *
                        static_cast<double>(std::int64_t{1} << frac_bits);
  if (!std::isfinite(scaled)) return 0;
  constexpr double kMax = 2147483647.0;
  const double clamped = std::max(-kMax, std::min(kMax, scaled));
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(std::llround(clamped)));
}

void quantize_words(core::KeyedStreamKernel kernel, const float* values,
                    std::uint32_t* words, std::size_t n, std::int64_t frac_bits) {
#if defined(__x86_64__)
  const auto scale = static_cast<float>(std::int64_t{1} << frac_bits);
  switch (kernel) {
    case core::KeyedStreamKernel::kAvx512:
      quantize_avx512(values, words, n, scale);
      return;
    case core::KeyedStreamKernel::kAvx2:
      quantize_avx2(values, words, n, scale);
      return;
    case core::KeyedStreamKernel::kScalar:
      break;
  }
#endif
  (void)kernel;
  for (std::size_t i = 0; i < n; ++i) words[i] = quantize(values[i], frac_bits);
}

void gaussian_from_words(core::KeyedStreamKernel kernel,
                         const std::uint32_t* words, std::size_t groups,
                         float* z) {
#if defined(__x86_64__)
  switch (kernel) {
    case core::KeyedStreamKernel::kAvx512:
      gaussian_avx512(words, groups, z);
      return;
    case core::KeyedStreamKernel::kAvx2:
      gaussian_avx2(words, groups, z);
      return;
    case core::KeyedStreamKernel::kScalar:
      break;
  }
#endif
  (void)kernel;
  gaussian_scalar(words, groups, z);
}

void add_scaled(float sigma, const float* z, float* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) values[i] += sigma * z[i];
}

}  // namespace cppflare::flare
