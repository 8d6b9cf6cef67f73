#include "core/keyed_stream.h"

#include <algorithm>
#include <cstring>
#include <string>

#if defined(__x86_64__)
// GCC 12 reports the AVX-512 intrinsics' _mm512_undefined_epi32() pass-
// through operand as maybe-uninitialized; the warning points into the
// header, so it is silenced there.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "core/error.h"
#include "core/keyed_stream_kernel.h"

namespace cppflare::core {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void quarter_round(std::uint32_t* x, int a, int b, int c, int d) {
  x[a] += x[b]; x[d] = rotl(x[d] ^ x[a], 16);
  x[c] += x[d]; x[b] = rotl(x[b] ^ x[c], 12);
  x[a] += x[b]; x[d] = rotl(x[d] ^ x[a], 8);
  x[c] += x[d]; x[b] = rotl(x[b] ^ x[c], 7);
}

void blocks_scalar(const std::uint32_t* state, std::uint32_t counter,
                   std::size_t nblocks, std::uint32_t* out) {
  for (; nblocks > 0; --nblocks, ++counter, out += 16) {
    std::uint32_t x[16];
    std::memcpy(x, state, sizeof(x));
    x[12] = counter;
    for (int i = 0; i < 10; ++i) {
      quarter_round(x, 0, 4, 8, 12);
      quarter_round(x, 1, 5, 9, 13);
      quarter_round(x, 2, 6, 10, 14);
      quarter_round(x, 3, 7, 11, 15);
      quarter_round(x, 0, 5, 10, 15);
      quarter_round(x, 1, 6, 11, 12);
      quarter_round(x, 2, 7, 8, 13);
      quarter_round(x, 3, 4, 9, 14);
    }
    for (int i = 0; i < 16; ++i) out[i] = x[i] + (i == 12 ? counter : state[i]);
  }
}

#if defined(__x86_64__)
// Both vector kernels keep one state word per register, one block per lane
// (block `counter + lane`), run the 20 rounds lane-parallel, then transpose
// the registers in place so each block's 16 words store contiguously. The
// target attributes confine the wider ISA to these functions; callers reach
// them only after CPUID reports it.

#define CF_CHACHA_DOUBLE_ROUND(QR)                                    \
  QR(0, 4, 8, 12) QR(1, 5, 9, 13) QR(2, 6, 10, 14) QR(3, 7, 11, 15) \
  QR(0, 5, 10, 15) QR(1, 6, 11, 12) QR(2, 7, 8, 13) QR(3, 4, 9, 14)

__attribute__((target("avx2"))) void blocks_avx2(const std::uint32_t* state,
                                                 std::uint32_t counter,
                                                 std::size_t nblocks,
                                                 std::uint32_t* out) {
  // Byte shuffles for the 16- and 8-bit rotations.
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; nblocks >= 8; nblocks -= 8, counter += 8, out += 128) {
    __m256i in[16], x[16];
    for (int i = 0; i < 16; ++i) in[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
    in[12] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)), lanes);
    for (int i = 0; i < 16; ++i) x[i] = in[i];
#define CF_QR8(a, b, c, d)                                                   \
  x[a] = _mm256_add_epi32(x[a], x[b]);                                       \
  x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);           \
  x[c] = _mm256_add_epi32(x[c], x[d]);                                       \
  x[b] = _mm256_xor_si256(x[b], x[c]);                                       \
  x[b] = _mm256_or_si256(_mm256_slli_epi32(x[b], 12), _mm256_srli_epi32(x[b], 20)); \
  x[a] = _mm256_add_epi32(x[a], x[b]);                                       \
  x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);            \
  x[c] = _mm256_add_epi32(x[c], x[d]);                                       \
  x[b] = _mm256_xor_si256(x[b], x[c]);                                       \
  x[b] = _mm256_or_si256(_mm256_slli_epi32(x[b], 7), _mm256_srli_epi32(x[b], 25));
    for (int round = 0; round < 10; ++round) {
      CF_CHACHA_DOUBLE_ROUND(CF_QR8)
    }
#undef CF_QR8
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);
    // Two 8x8 transposes: words 0-7 and words 8-15 of the 8 blocks.
    for (int half = 0; half < 2; ++half) {
      const __m256i* r = x + 8 * half;
      const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
      const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
      const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
      const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
      const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
      const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
      const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
      const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
      // u[j]: words 0-3 (u[j]) and 4-7 (u[4 + j]) of blocks j and j + 4.
      const __m256i u[8] = {
          _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
          _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3),
          _mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6),
          _mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7)};
      std::uint32_t* dst = out + 8 * half;
      for (int j = 0; j < 4; ++j) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16 * j),
                            _mm256_permute2x128_si256(u[j], u[4 + j], 0x20));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16 * (j + 4)),
                            _mm256_permute2x128_si256(u[j], u[4 + j], 0x31));
      }
    }
  }
  blocks_scalar(state, counter, nblocks, out);
}

__attribute__((target("avx512f"))) void blocks_avx512(
    const std::uint32_t* state, std::uint32_t counter, std::size_t nblocks,
    std::uint32_t* out) {
  const __m512i lanes =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  for (; nblocks >= 16; nblocks -= 16, counter += 16, out += 256) {
    __m512i in[16], x[16];
    for (int i = 0; i < 16; ++i) in[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
    in[12] = _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(counter)), lanes);
    for (int i = 0; i < 16; ++i) x[i] = in[i];
#define CF_QR16(a, b, c, d)                                              \
  x[a] = _mm512_add_epi32(x[a], x[b]);                                   \
  x[d] = _mm512_rol_epi32(_mm512_xor_si512(x[d], x[a]), 16);             \
  x[c] = _mm512_add_epi32(x[c], x[d]);                                   \
  x[b] = _mm512_rol_epi32(_mm512_xor_si512(x[b], x[c]), 12);             \
  x[a] = _mm512_add_epi32(x[a], x[b]);                                   \
  x[d] = _mm512_rol_epi32(_mm512_xor_si512(x[d], x[a]), 8);              \
  x[c] = _mm512_add_epi32(x[c], x[d]);                                   \
  x[b] = _mm512_rol_epi32(_mm512_xor_si512(x[b], x[c]), 7);
    for (int round = 0; round < 10; ++round) {
      CF_CHACHA_DOUBLE_ROUND(CF_QR16)
    }
#undef CF_QR16
    for (int i = 0; i < 16; ++i) x[i] = _mm512_add_epi32(x[i], in[i]);
    // 16x16 transpose. Within each 128-bit lane k, u[4q + j] holds words
    // 4q..4q+3 of block 4k + j after the two unpack stages.
    __m512i t[16], u[16];
    for (int i = 0; i < 8; ++i) {
      t[2 * i] = _mm512_unpacklo_epi32(x[2 * i], x[2 * i + 1]);
      t[2 * i + 1] = _mm512_unpackhi_epi32(x[2 * i], x[2 * i + 1]);
    }
    for (int q = 0; q < 4; ++q) {
      const __m512i* p = t + 4 * q;
      u[4 * q + 0] = _mm512_unpacklo_epi64(p[0], p[2]);
      u[4 * q + 1] = _mm512_unpackhi_epi64(p[0], p[2]);
      u[4 * q + 2] = _mm512_unpacklo_epi64(p[1], p[3]);
      u[4 * q + 3] = _mm512_unpackhi_epi64(p[1], p[3]);
    }
    // Gather lane k of u[j], u[4 + j], u[8 + j], u[12 + j] into block 4k + j.
    for (int j = 0; j < 4; ++j) {
      const __m512i v0 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
      const __m512i v1 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xdd);
      const __m512i w0 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
      const __m512i w1 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xdd);
      _mm512_storeu_si512(out + 16 * j, _mm512_shuffle_i32x4(v0, w0, 0x88));
      _mm512_storeu_si512(out + 16 * (4 + j), _mm512_shuffle_i32x4(v1, w1, 0x88));
      _mm512_storeu_si512(out + 16 * (8 + j), _mm512_shuffle_i32x4(v0, w0, 0xdd));
      _mm512_storeu_si512(out + 16 * (12 + j), _mm512_shuffle_i32x4(v1, w1, 0xdd));
    }
  }
  blocks_avx2(state, counter, nblocks, out);
}

#undef CF_CHACHA_DOUBLE_ROUND
#endif

using BlocksFn = void (*)(const std::uint32_t*, std::uint32_t, std::size_t,
                          std::uint32_t*);

BlocksFn blocks_of(KeyedStreamKernel kernel) {
#if defined(__x86_64__)
  if (kernel == KeyedStreamKernel::kAvx512) return blocks_avx512;
  if (kernel == KeyedStreamKernel::kAvx2) return blocks_avx2;
#endif
  (void)kernel;
  return blocks_scalar;
}

}  // namespace

bool keyed_stream_kernel_supported(KeyedStreamKernel kernel) {
#if defined(__x86_64__)
  // __builtin_cpu_supports also checks that the OS saves the YMM/ZMM state.
  // The AVX2 tier includes FMA: the privacy filters' noise kernel at this
  // tier fuses its polynomial steps.
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  static const bool avx512 = avx2 && __builtin_cpu_supports("avx512f");
  switch (kernel) {
    case KeyedStreamKernel::kScalar: return true;
    case KeyedStreamKernel::kAvx2: return avx2;
    case KeyedStreamKernel::kAvx512: return avx512;
  }
  return false;
#else
  return kernel == KeyedStreamKernel::kScalar;
#endif
}

KeyedStreamKernel keyed_stream_active_kernel() {
  static const KeyedStreamKernel active = [] {
    if (keyed_stream_kernel_supported(KeyedStreamKernel::kAvx512)) {
      return KeyedStreamKernel::kAvx512;
    }
    if (keyed_stream_kernel_supported(KeyedStreamKernel::kAvx2)) {
      return KeyedStreamKernel::kAvx2;
    }
    return KeyedStreamKernel::kScalar;
  }();
  return active;
}

const char* keyed_stream_kernel_name(KeyedStreamKernel kernel) {
  switch (kernel) {
    case KeyedStreamKernel::kScalar: return "scalar";
    case KeyedStreamKernel::kAvx2: return "avx2";
    case KeyedStreamKernel::kAvx512: return "avx512f";
  }
  return "unknown";
}

KeyedStream keyed_stream_with_kernel(KeyedStreamKernel kernel,
                                     const Digest& key,
                                     const KeyedStream::Nonce& nonce) {
  if (!keyed_stream_kernel_supported(kernel)) {
    throw Error(std::string("keyed stream: kernel ") +
                keyed_stream_kernel_name(kernel) +
                " is not supported on this CPU");
  }
  return KeyedStream(key, nonce, blocks_of(kernel));
}

KeyedStream::KeyedStream(const Digest& key, const Nonce& nonce)
    : KeyedStream(key, nonce, blocks_of(keyed_stream_active_kernel())) {}

KeyedStream::KeyedStream(const Digest& key, const Nonce& nonce, Blocks blocks)
    : blocks_(blocks) {
  // "expand 32-byte k", the key, the block counter (set per block), the nonce.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = 0;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void KeyedStream::read(std::uint64_t first_word, std::size_t count,
                       std::uint32_t* out) const {
  if (count == 0) return;
  constexpr std::uint64_t kWords = std::uint64_t{1} << 36;  // 2^32 blocks
  if (first_word >= kWords || count > kWords - first_word) {
    throw Error("KeyedStream::read: range runs past the 32-bit block counter");
  }
  auto block = static_cast<std::uint32_t>(first_word / 16);
  const auto skip = static_cast<std::size_t>(first_word % 16);
  std::uint32_t partial[16];
  if (skip != 0) {
    blocks_(state_.data(), block++, 1, partial);
    const std::size_t take = std::min(count, 16 - skip);
    std::memcpy(out, partial + skip, take * sizeof(std::uint32_t));
    out += take;
    count -= take;
  }
  const std::size_t whole = count / 16;
  if (whole > 0) {
    blocks_(state_.data(), block, whole, out);
    block += static_cast<std::uint32_t>(whole);
    out += 16 * whole;
    count -= 16 * whole;
  }
  if (count > 0) {
    blocks_(state_.data(), block, 1, partial);
    std::memcpy(out, partial, count * sizeof(std::uint32_t));
  }
}

}  // namespace cppflare::core
