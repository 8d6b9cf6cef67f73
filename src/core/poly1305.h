// Poly1305 one-time authenticator (RFC 8439 §2.5).
//
// The envelope's AEAD (core/aead.h) tags every frame with Poly1305 under a
// one-time key taken from ChaCha20 block 0. Two kernels compute the same
// function: a constant-time scalar one in radix 2^64 and an AVX2 one that
// runs two 4-lane accumulators in radix 2^26 (eight blocks per step)
// against precomputed r^1..r^8.
// Poly1305 picks one per process from CPUID (DESIGN.md "Poly1305 dispatch").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cppflare::core {

enum class Poly1305Kernel : std::uint8_t;  // core/poly1305_kernel.h

/// Accumulator and key of one Poly1305 computation, shared by the kernels.
struct Poly1305State {
  std::uint64_t h[3] = {0, 0, 0};  // h[0] + h[1]·2^64 + h[2]·2^128
  std::uint64_t r[2] = {0, 0};     // clamped r
  /// r^1..r^8 in five 26-bit limbs each; the AVX2 kernel fills them on
  /// first use.
  std::uint32_t powers[8][5] = {};
  bool have_powers = false;
};

/// Incremental Poly1305. A key authenticates exactly one message.
class Poly1305 {
 public:
  using Key = std::array<std::uint8_t, 32>;
  using Tag = std::array<std::uint8_t, 16>;

  /// Authenticates with the kernel picked for this CPU.
  explicit Poly1305(const Key& key);

  void update(const std::uint8_t* data, std::size_t len);

  /// Zero-pads the message so far to a 16-byte boundary (the AEAD's pad16).
  void pad16();

  /// The tag. The object must not be reused after.
  Tag finish();

 private:
  /// Absorbs `nblocks` whole 16-byte blocks, each with 2^128·`hibit` added.
  using Blocks = void (*)(Poly1305State& state, const std::uint8_t* blocks,
                          std::size_t nblocks, std::uint64_t hibit);

  Poly1305(const Key& key, Blocks blocks);
  friend Poly1305 poly1305_with_kernel(Poly1305Kernel kernel, const Key& key);

  Blocks blocks_;
  Poly1305State state_;
  std::array<std::uint64_t, 2> s_;  // the key's second half, added at the end
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffered_ = 0;
};

/// Constant-time tag comparison.
bool tags_equal(const Poly1305::Tag& a, const Poly1305::Tag& b);

}  // namespace cppflare::core
