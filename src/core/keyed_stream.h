// Keyed, counter-addressable pseudorandom word stream: ChaCha20 (RFC 8439).
//
// The privacy filters draw every pairwise mask word and every DP noise
// uniform from this stream. ChaCha20 is a keyed PRG, so observed output
// does not predict the rest of the stream (unlike a linear generator such
// as MT19937), and its block counter makes any word range directly
// addressable: word i is produced by block i / 16 alone, so callers split
// generation over compute threads and the output is identical at every
// thread budget.
#pragma once

#include <array>
#include <cstdint>

#include "core/sha256.h"

namespace cppflare::core {

enum class KeyedStreamKernel : std::uint8_t;  // core/keyed_stream_kernel.h

/// The ChaCha20 keystream for a 256-bit key and a 96-bit nonce, read as
/// little-endian uint32 words. Word i is bytes [4i, 4i + 4) of the RFC 8439
/// keystream whose first block has counter 0, so word i comes from block
/// counter i / 16. The 32-bit block counter bounds a stream at 2^36 words.
class KeyedStream {
 public:
  using Nonce = std::array<std::uint8_t, 12>;

  /// Streams with the block kernel picked for this CPU.
  KeyedStream(const Digest& key, const Nonce& nonce);

  /// Writes words [first_word, first_word + count) to `out`. Throws Error
  /// when the range runs past the block counter.
  void read(std::uint64_t first_word, std::size_t count,
            std::uint32_t* out) const;

 private:
  /// Writes `nblocks` whole 16-word blocks starting at block `counter`.
  using Blocks = void (*)(const std::uint32_t* state, std::uint32_t counter,
                          std::size_t nblocks, std::uint32_t* out);

  KeyedStream(const Digest& key, const Nonce& nonce, Blocks blocks);
  friend KeyedStream keyed_stream_with_kernel(KeyedStreamKernel kernel,
                                              const Digest& key,
                                              const Nonce& nonce);

  Blocks blocks_;
  std::array<std::uint32_t, 16> state_;  // constants, key, counter slot, nonce
};

}  // namespace cppflare::core
