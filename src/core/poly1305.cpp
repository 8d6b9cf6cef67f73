#include "core/poly1305.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/error.h"
#include "core/poly1305_kernel.h"

namespace cppflare::core {

namespace {

static_assert(std::endian::native == std::endian::little,
              "Poly1305 loads message words in host byte order");

using u128 = unsigned __int128;

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// h = h·r mod 2^130 - 5, partially reduced: h[2] leaves at most 4. With r1 a
// multiple of 4 (clamping), 2^128·r1 = 2^130·(r1/4) reduces to s1 = 5·r1/4.
inline void mul_r(std::uint64_t& h0, std::uint64_t& h1, std::uint64_t& h2,
                  std::uint64_t r0, std::uint64_t r1, std::uint64_t s1) {
  const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s1;
  u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 + h2 * s1;
  h2 *= r0;
  h0 = static_cast<std::uint64_t>(d0);
  d1 += static_cast<std::uint64_t>(d0 >> 64);
  h1 = static_cast<std::uint64_t>(d1);
  h2 += static_cast<std::uint64_t>(d1 >> 64);
  // Fold the bits above 2^130 back in as 5·(h2 >> 2).
  const std::uint64_t c = (h2 >> 2) + (h2 & ~std::uint64_t{3});
  h2 &= 3;
  const u128 t0 = static_cast<u128>(h0) + c;
  h0 = static_cast<std::uint64_t>(t0);
  const u128 t1 = static_cast<u128>(h1) + static_cast<std::uint64_t>(t0 >> 64);
  h1 = static_cast<std::uint64_t>(t1);
  h2 += static_cast<std::uint64_t>(t1 >> 64);
}

void blocks_scalar(Poly1305State& st, const std::uint8_t* m, std::size_t nblocks,
                   std::uint64_t hibit) {
  const std::uint64_t r0 = st.r[0], r1 = st.r[1], s1 = r1 + (r1 >> 2);
  std::uint64_t h0 = st.h[0], h1 = st.h[1], h2 = st.h[2];
  for (; nblocks > 0; --nblocks, m += 16) {
    const u128 t0 = static_cast<u128>(h0) + load_le64(m);
    const u128 t1 = static_cast<u128>(h1) + load_le64(m + 8) +
                    static_cast<std::uint64_t>(t0 >> 64);
    h0 = static_cast<std::uint64_t>(t0);
    h1 = static_cast<std::uint64_t>(t1);
    h2 += static_cast<std::uint64_t>(t1 >> 64) + hibit;
    mul_r(h0, h1, h2, r0, r1, s1);
  }
  st.h[0] = h0;
  st.h[1] = h1;
  st.h[2] = h2;
}

/// The canonical residue of a partially reduced h (below 2p): h - p when
/// h + 5 carries into bit 130, selected without a branch.
void reduce_full(std::uint64_t h[3]) {
  u128 t = static_cast<u128>(h[0]) + 5;
  const auto g0 = static_cast<std::uint64_t>(t);
  t = static_cast<u128>(h[1]) + static_cast<std::uint64_t>(t >> 64);
  const auto g1 = static_cast<std::uint64_t>(t);
  const std::uint64_t g2 = h[2] + static_cast<std::uint64_t>(t >> 64);
  const std::uint64_t take = 0 - (g2 >> 2);
  h[0] = (h[0] & ~take) | (g0 & take);
  h[1] = (h[1] & ~take) | (g1 & take);
  h[2] = (h[2] & ~take) | (g2 & 3 & take);
}

#if defined(__x86_64__)

constexpr std::uint64_t kMask26 = 0x3ffffff;

/// Five 26-bit limbs of h (h[2] at most 7, so the top limb stays below 2^27).
void to_radix26(const std::uint64_t h[3], std::uint32_t out[5]) {
  out[0] = static_cast<std::uint32_t>(h[0] & kMask26);
  out[1] = static_cast<std::uint32_t>((h[0] >> 26) & kMask26);
  out[2] = static_cast<std::uint32_t>(((h[0] >> 52) | (h[1] << 12)) & kMask26);
  out[3] = static_cast<std::uint32_t>((h[1] >> 14) & kMask26);
  out[4] = static_cast<std::uint32_t>((h[1] >> 40) | (h[2] << 24));
}

/// h from limbs of up to 29 bits each, folded back to h[2] <= 4.
void from_radix26(const std::uint64_t l[5], std::uint64_t h[3]) {
  u128 t = static_cast<u128>(l[0]) + (static_cast<u128>(l[1]) << 26) +
           (static_cast<u128>(l[2]) << 52);
  h[0] = static_cast<std::uint64_t>(t);
  t = (t >> 64) + (static_cast<u128>(l[3]) << 14) + (static_cast<u128>(l[4]) << 40);
  h[1] = static_cast<std::uint64_t>(t);
  h[2] = static_cast<std::uint64_t>(t >> 64);
  const std::uint64_t c = (h[2] >> 2) + (h[2] & ~std::uint64_t{3});
  h[2] &= 3;
  t = static_cast<u128>(h[0]) + c;
  h[0] = static_cast<std::uint64_t>(t);
  t = static_cast<u128>(h[1]) + static_cast<std::uint64_t>(t >> 64);
  h[1] = static_cast<std::uint64_t>(t);
  h[2] += static_cast<std::uint64_t>(t >> 64);
}

/// r^1..r^8, each reduced to its canonical residue and split into limbs.
void compute_powers(Poly1305State& st) {
  const std::uint64_t r0 = st.r[0], r1 = st.r[1], s1 = r1 + (r1 >> 2);
  std::uint64_t x[3] = {r0, r1, 0};
  for (int k = 0; k < std::ssize(st.powers); ++k) {
    if (k > 0) mul_r(x[0], x[1], x[2], r0, r1, s1);
    std::uint64_t y[3] = {x[0], x[1], x[2]};
    reduce_full(y);
    to_radix26(y, st.powers[k]);
  }
  st.have_powers = true;
}

// Below this many blocks the scalar kernel beats the vector setup (power
// broadcasts, the final multiply and the lane sum).
constexpr std::size_t kVectorMinBlocks = 16;

#define CF_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// h = h·r mod 2^130 - 5 per lane in radix 2^26, with s = 5r. The carry
/// runs two chains at once (d3 -> d4 -> d0 and d0 -> d1 -> d2 -> d3) and
/// leaves every limb below 2^26 + 2^10, so adding a message block keeps
/// limbs below 2^28 and the next products' sums below 2^59.
CF_AVX2_INLINE void mul_reduce(__m256i* h, const __m256i* r, const __m256i* s) {
  const __m256i m26 = _mm256_set1_epi64x(static_cast<long long>(kMask26));
#define CF_MUL(a, b) _mm256_mul_epu32(a, b)
#define CF_ADD(a, b) _mm256_add_epi64(a, b)
  __m256i d0 = CF_MUL(h[0], r[0]);
  __m256i d1 = CF_MUL(h[0], r[1]);
  __m256i d2 = CF_MUL(h[0], r[2]);
  __m256i d3 = CF_MUL(h[0], r[3]);
  __m256i d4 = CF_MUL(h[0], r[4]);
  d0 = CF_ADD(d0, CF_MUL(h[1], s[4]));
  d1 = CF_ADD(d1, CF_MUL(h[1], r[0]));
  d2 = CF_ADD(d2, CF_MUL(h[1], r[1]));
  d3 = CF_ADD(d3, CF_MUL(h[1], r[2]));
  d4 = CF_ADD(d4, CF_MUL(h[1], r[3]));
  d0 = CF_ADD(d0, CF_MUL(h[2], s[3]));
  d1 = CF_ADD(d1, CF_MUL(h[2], s[4]));
  d2 = CF_ADD(d2, CF_MUL(h[2], r[0]));
  d3 = CF_ADD(d3, CF_MUL(h[2], r[1]));
  d4 = CF_ADD(d4, CF_MUL(h[2], r[2]));
  d0 = CF_ADD(d0, CF_MUL(h[3], s[2]));
  d1 = CF_ADD(d1, CF_MUL(h[3], s[3]));
  d2 = CF_ADD(d2, CF_MUL(h[3], s[4]));
  d3 = CF_ADD(d3, CF_MUL(h[3], r[0]));
  d4 = CF_ADD(d4, CF_MUL(h[3], r[1]));
  d0 = CF_ADD(d0, CF_MUL(h[4], s[1]));
  d1 = CF_ADD(d1, CF_MUL(h[4], s[2]));
  d2 = CF_ADD(d2, CF_MUL(h[4], s[3]));
  d3 = CF_ADD(d3, CF_MUL(h[4], s[4]));
  d4 = CF_ADD(d4, CF_MUL(h[4], r[0]));
  __m256i c;
  c = _mm256_srli_epi64(d3, 26); d3 = _mm256_and_si256(d3, m26); d4 = CF_ADD(d4, c);
  c = _mm256_srli_epi64(d0, 26); d0 = _mm256_and_si256(d0, m26); d1 = CF_ADD(d1, c);
  c = _mm256_srli_epi64(d4, 26); d4 = _mm256_and_si256(d4, m26);
  d0 = CF_ADD(d0, CF_ADD(c, _mm256_slli_epi64(c, 2)));
  c = _mm256_srli_epi64(d1, 26); d1 = _mm256_and_si256(d1, m26); d2 = CF_ADD(d2, c);
  c = _mm256_srli_epi64(d2, 26); d2 = _mm256_and_si256(d2, m26); d3 = CF_ADD(d3, c);
  c = _mm256_srli_epi64(d0, 26); d0 = _mm256_and_si256(d0, m26); d1 = CF_ADD(d1, c);
  c = _mm256_srli_epi64(d3, 26); d3 = _mm256_and_si256(d3, m26); d4 = CF_ADD(d4, c);
#undef CF_MUL
#undef CF_ADD
  h[0] = d0;
  h[1] = d1;
  h[2] = d2;
  h[3] = d3;
  h[4] = d4;
}

/// Four message blocks as radix-2^26 limbs with the 2^128 bit set. Lanes
/// hold blocks 0, 2, 1, 3 (the order 64-bit unpacks leave them in).
CF_AVX2_INLINE void load_blocks(const std::uint8_t* m, __m256i* msg) {
  const __m256i m26 = _mm256_set1_epi64x(static_cast<long long>(kMask26));
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m));
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 32));
  const __m256i lo = _mm256_unpacklo_epi64(a, b);
  const __m256i hi = _mm256_unpackhi_epi64(a, b);
  msg[0] = _mm256_and_si256(lo, m26);
  msg[1] = _mm256_and_si256(_mm256_srli_epi64(lo, 26), m26);
  msg[2] = _mm256_and_si256(
      _mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)), m26);
  msg[3] = _mm256_and_si256(_mm256_srli_epi64(hi, 14), m26);
  msg[4] = _mm256_or_si256(_mm256_srli_epi64(hi, 40), _mm256_set1_epi64x(1 << 24));
}

/// Limb i of r^a, r^b, r^c and r^d in lanes 0-3, times `scale` (5 for the
/// products that wrap past 2^130).
CF_AVX2_INLINE __m256i power_lanes(const Poly1305State& st, int i, int a, int b,
                                   int c, int d, long long scale) {
  const auto& p = st.powers;
  return _mm256_setr_epi64x(scale * p[a - 1][i], scale * p[b - 1][i],
                            scale * p[c - 1][i], scale * p[d - 1][i]);
}

#undef CF_AVX2_INLINE

// Eight accumulators in two vectors, one per lane: `ha` takes blocks 0-3 of
// every eight and `hb` blocks 4-7, each lane multiplying by r^8 per step.
// Two independent vectors hide the multiply-and-carry latency of each. The
// last step multiplies lane by lane with the power that brings its blocks
// to their place in the sum (r^8, r^6, r^7, r^5 for `ha`'s lanes, r^4, r^2,
// r^3, r^1 for `hb`'s), and the lanes add up to the scalar accumulator. The
// state's h enters `ha`'s lane 0.
__attribute__((target("avx2"))) void blocks_avx2(Poly1305State& st,
                                                 const std::uint8_t* m,
                                                 std::size_t nblocks,
                                                 std::uint64_t hibit) {
  if (hibit == 1 && nblocks >= kVectorMinBlocks) {
    if (!st.have_powers) compute_powers(st);
    __m256i r8[5], s8[5], ra[5], sa[5], rb[5], sb[5];
    for (int i = 0; i < 5; ++i) {
      r8[i] = power_lanes(st, i, 8, 8, 8, 8, 1);
      s8[i] = power_lanes(st, i, 8, 8, 8, 8, 5);
      ra[i] = power_lanes(st, i, 8, 6, 7, 5, 1);
      sa[i] = power_lanes(st, i, 8, 6, 7, 5, 5);
      rb[i] = power_lanes(st, i, 4, 2, 3, 1, 1);
      sb[i] = power_lanes(st, i, 4, 2, 3, 1, 5);
    }
    std::uint32_t h26[5];
    to_radix26(st.h, h26);
    __m256i ha[5], hb[5], ma[5], mb[5];
    load_blocks(m, ma);
    load_blocks(m + 64, mb);
    for (int i = 0; i < 5; ++i) {
      ha[i] = _mm256_add_epi64(_mm256_setr_epi64x(h26[i], 0, 0, 0), ma[i]);
      hb[i] = mb[i];
    }
    for (m += 128, nblocks -= 8; nblocks >= 8; m += 128, nblocks -= 8) {
      mul_reduce(ha, r8, s8);
      mul_reduce(hb, r8, s8);
      load_blocks(m, ma);
      load_blocks(m + 64, mb);
      for (int i = 0; i < 5; ++i) {
        ha[i] = _mm256_add_epi64(ha[i], ma[i]);
        hb[i] = _mm256_add_epi64(hb[i], mb[i]);
      }
    }
    mul_reduce(ha, ra, sa);
    mul_reduce(hb, rb, sb);
    __m256i h[5];
    for (int i = 0; i < 5; ++i) h[i] = _mm256_add_epi64(ha[i], hb[i]);
    std::uint64_t limbs[5];
    for (int i = 0; i < 5; ++i) {
      const __m128i t = _mm_add_epi64(_mm256_castsi256_si128(h[i]),
                                      _mm256_extracti128_si256(h[i], 1));
      limbs[i] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(t)) +
                 static_cast<std::uint64_t>(_mm_extract_epi64(t, 1));
    }
    from_radix26(limbs, st.h);
    _mm256_zeroupper();
  }
  blocks_scalar(st, m, nblocks, hibit);
}

#endif

using BlocksFn = void (*)(Poly1305State&, const std::uint8_t*, std::size_t,
                          std::uint64_t);

BlocksFn blocks_of(Poly1305Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == Poly1305Kernel::kAvx2) return blocks_avx2;
#endif
  (void)kernel;
  return blocks_scalar;
}

}  // namespace

bool poly1305_kernel_supported(Poly1305Kernel kernel) {
#if defined(__x86_64__)
  // __builtin_cpu_supports also checks that the OS saves the YMM state.
  static const bool avx2 = __builtin_cpu_supports("avx2");
  switch (kernel) {
    case Poly1305Kernel::kScalar: return true;
    case Poly1305Kernel::kAvx2: return avx2;
  }
  return false;
#else
  return kernel == Poly1305Kernel::kScalar;
#endif
}

Poly1305Kernel poly1305_active_kernel() {
  static const Poly1305Kernel active =
      poly1305_kernel_supported(Poly1305Kernel::kAvx2) ? Poly1305Kernel::kAvx2
                                                       : Poly1305Kernel::kScalar;
  return active;
}

const char* poly1305_kernel_name(Poly1305Kernel kernel) {
  switch (kernel) {
    case Poly1305Kernel::kScalar: return "scalar";
    case Poly1305Kernel::kAvx2: return "avx2";
  }
  return "unknown";
}

Poly1305 poly1305_with_kernel(Poly1305Kernel kernel, const Poly1305::Key& key) {
  if (!poly1305_kernel_supported(kernel)) {
    throw Error(std::string("poly1305: kernel ") + poly1305_kernel_name(kernel) +
                " is not supported on this CPU");
  }
  return Poly1305(key, blocks_of(kernel));
}

Poly1305::Poly1305(const Key& key) : Poly1305(key, blocks_of(poly1305_active_kernel())) {}

Poly1305::Poly1305(const Key& key, Blocks blocks) : blocks_(blocks) {
  state_.r[0] = load_le64(key.data()) & 0x0ffffffc0fffffffull;
  state_.r[1] = load_le64(key.data() + 8) & 0x0ffffffc0ffffffcull;
  s_ = {load_le64(key.data() + 16), load_le64(key.data() + 24)};
}

void Poly1305::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    blocks_(state_, buffer_.data(), 1, 1);
    buffered_ = 0;
  }
  const std::size_t whole = len / 16;
  if (whole > 0) blocks_(state_, data, whole, 1);
  data += 16 * whole;
  len -= 16 * whole;
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

void Poly1305::pad16() {
  if (buffered_ == 0) return;
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_), buffer_.end(), 0);
  blocks_(state_, buffer_.data(), 1, 1);
  buffered_ = 0;
}

Poly1305::Tag Poly1305::finish() {
  if (buffered_ > 0) {
    // A short final block carries its 2^(8·len) bit as a 0x01 byte.
    buffer_[buffered_] = 1;
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_) + 1,
              buffer_.end(), 0);
    blocks_(state_, buffer_.data(), 1, 0);
    buffered_ = 0;
  }
  std::uint64_t h[3] = {state_.h[0], state_.h[1], state_.h[2]};
  reduce_full(h);
  u128 t = static_cast<u128>(h[0]) + s_[0];
  const auto t0 = static_cast<std::uint64_t>(t);
  t = static_cast<u128>(h[1]) + s_[1] + static_cast<std::uint64_t>(t >> 64);
  const auto t1 = static_cast<std::uint64_t>(t);
  Tag tag;
  std::memcpy(tag.data(), &t0, 8);
  std::memcpy(tag.data() + 8, &t1, 8);
  return tag;
}

bool tags_equal(const Poly1305::Tag& a, const Poly1305::Tag& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace cppflare::core
