#include "core/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "core/error.h"
#include "core/sha256_kernel.h"

namespace cppflare::core {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_scalar(std::uint32_t* state, const std::uint8_t* block,
                     std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
             static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// Intel SHA extensions. The state lives in two registers as ABEF/CDGH (the
// layout SHA256RNDS2 wants); each 4-round group adds four round constants
// to four schedule words and runs two RNDS2 steps, while SHA256MSG1/MSG2
// derive later schedule words from the four most recent groups. Compiled
// for SHA+SSE4.1 via the target attribute only, so the rest of the build
// keeps its baseline ISA; callers reach it only after CPUID reports SHA.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* block, std::size_t nblocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);                 // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);           // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);        // CDGH

  for (; nblocks > 0; --nblocks, block += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = msg[g & 3];
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g <= 12) {
        msg[(g + 3) & 3] = _mm_sha256msg1_epu32(msg[(g + 3) & 3], cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);           // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);        // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);     // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);        // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

bool cpu_has_sha_ni() {
#if defined(__x86_64__)
  // CPUID leaf 1 ECX: SSSE3 (bit 9), SSE4.1 (bit 19); leaf 7 EBX: SHA (bit 29).
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn compress_of(Sha256Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == Sha256Kernel::kShaNi) return compress_shani;
#endif
  (void)kernel;
  return compress_scalar;
}

}  // namespace

bool sha256_kernel_supported(Sha256Kernel kernel) {
  static const bool sha_ni = cpu_has_sha_ni();
  return kernel == Sha256Kernel::kScalar || sha_ni;
}

Sha256Kernel sha256_active_kernel() {
  return sha256_kernel_supported(Sha256Kernel::kShaNi) ? Sha256Kernel::kShaNi
                                                       : Sha256Kernel::kScalar;
}

const char* sha256_kernel_name(Sha256Kernel kernel) {
  return kernel == Sha256Kernel::kShaNi ? "sha-ni" : "scalar";
}

Sha256 sha256_with_kernel(Sha256Kernel kernel) {
  if (!sha256_kernel_supported(kernel)) {
    throw Error(std::string("sha256: kernel ") + sha256_kernel_name(kernel) +
                " is not supported on this CPU");
  }
  return Sha256(compress_of(kernel));
}

Sha256::Sha256() : Sha256(compress_of(sha256_active_kernel())) {}

Sha256::Sha256(Compress compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_bytes_ += len;
  if (buffered_ != 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    process_blocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks hash straight from the caller's buffer.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) {
    process_blocks(data, whole);
    data += whole * buffer_.size();
    len -= whole * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

void Sha256::update(const std::string& s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Sha256::update(const std::vector<std::uint8_t>& v) {
  update(v.data(), v.size());
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_blocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  // Length counts only the message bits, not the padding.
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  process_blocks(buffer_.data(), 1);
  buffered_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest Sha256::hash(const std::string& s) {
  return hash(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest hmac_sha256_with_kernel(Sha256Kernel kernel,
                               const std::vector<std::uint8_t>& key,
                               const std::uint8_t* message, std::size_t len) {
  constexpr std::size_t kBlock = 64;
  std::vector<std::uint8_t> k = key;
  if (k.size() > kBlock) {
    Sha256 h = sha256_with_kernel(kernel);
    h.update(k);
    const Digest d = h.finish();
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0);

  std::vector<std::uint8_t> ipad(kBlock), opad(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner = sha256_with_kernel(kernel);
  inner.update(ipad);
  inner.update(message, len);
  const Digest inner_digest = inner.finish();

  Sha256 outer = sha256_with_kernel(kernel);
  outer.update(opad);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len) {
  return hmac_sha256_with_kernel(sha256_active_kernel(), key, message, len);
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message) {
  return hmac_sha256(key, message.data(), message.size());
}

std::string to_hex(const Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (std::uint8_t b : digest) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

bool digests_equal(const Digest& a, const Digest& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace cppflare::core
