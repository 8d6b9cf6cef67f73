// Bulk kernels behind the privacy filters (internal).
//
// The DP noise filter (flare/filters.h) and the pairwise-mask filter
// (flare/secure_agg.h) both view an update as one flat array: the values
// of every blob, blobs in map order. Element i of that array consumes word
// i of a core::KeyedStream, so the output is a pure function of position,
// and `for_each_chunk` can hand chunks to core::parallel_for: uploads are
// bit-identical at every compute budget.
//
// Quantize and the Box–Muller transform run at the process's ISA tier
// (core::keyed_stream_active_kernel()). The scalar versions are the
// bitwise reference; tests cross-check every supported tier against them.
#pragma once

#include <cstdint>
#include <functional>

#include "core/keyed_stream_kernel.h"
#include "nn/state_dict.h"

namespace cppflare::flare {

/// Words per chunk: 4 KB of values plus a 4 KB keystream buffer stay in L1.
inline constexpr std::size_t kPrivacyChunkWords = 1024;

/// Calls fn(first_word, values, n) for each consecutive chunk of
/// kPrivacyChunkWords elements of `dict` viewed flat (the last chunk may be
/// shorter). `first_word` is the flat index of values[0]. A chunk that
/// crosses a blob boundary is staged in a contiguous buffer and written
/// back after fn returns. Chunks run through core::parallel_for, so fn must
/// only touch its own values.
void for_each_chunk(
    nn::StateDict& dict,
    const std::function<void(std::uint64_t first_word, float* values,
                             std::size_t n)>& fn);

/// The fixed-point word of `v`: v * 2^frac_bits rounded half away from
/// zero (llround), saturated to ±(2^31 − 1); NaN and ±Inf become 0. The
/// scalar reference for quantize_words.
std::uint32_t quantize(float v, std::int64_t frac_bits);

/// words[i] = quantize(values[i], frac_bits) for i < n, computed at
/// `kernel`'s tier; bit-equal to quantize() for every input.
void quantize_words(core::KeyedStreamKernel kernel, const float* values,
                    std::uint32_t* words, std::size_t n, std::int64_t frac_bits);

/// Standard normals from keystream words by Box–Muller, 32 per 32-word
/// group. In group g, for i < 16: u1 = ((w[32g+i] >> 8) + 1) * 2^-24 lies in
/// [2^-24, 1], u2 = (w[32g+16+i] >> 8) * 2^-24 in [0, 1), r = sqrt(-2 ln u1),
/// z[32g+i] = r cos(2π u2) and z[32g+16+i] = r sin(2π u2). Since u1 >= 2^-24,
/// |z| <= sqrt(48 ln 2) ≈ 5.77. Computed at `kernel`'s tier in float with a
/// polynomial log and a quadrant-split sincos; every tier is bit-equal.
void gaussian_from_words(core::KeyedStreamKernel kernel,
                         const std::uint32_t* words, std::size_t groups,
                         float* z);

/// values[i] += sigma * z[i] for i < n: a multiply and an add, never fused.
void add_scaled(float sigma, const float* z, float* values, std::size_t n);

}  // namespace cppflare::flare
