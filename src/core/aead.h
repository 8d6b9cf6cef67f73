// ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8).
//
// The message envelope (flare/secure_channel.h) encrypts and authenticates
// every frame with this AEAD. It reuses core::KeyedStream's ChaCha20 block
// kernels (block 0 yields the Poly1305 key, blocks 1.. the keystream) and
// core::Poly1305, and walks the payload in L1-sized chunks so each chunk is
// encrypted and MACed while it is still in cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/keyed_stream.h"
#include "core/poly1305.h"
#include "core/sha256.h"

namespace cppflare::core {

using AeadNonce = KeyedStream::Nonce;
using AeadTag = Poly1305::Tag;

/// Encrypts `data` in place under (`key`, `nonce`) and returns the tag over
/// `aad` and the ciphertext. A (key, nonce) pair must never seal twice.
AeadTag aead_seal(const Digest& key, const AeadNonce& nonce,
                  std::span<const std::uint8_t> aad, std::span<std::uint8_t> data);

/// Checks `tag` over `aad` and `ciphertext` while decrypting into `out`
/// (ciphertext.size() bytes; `out` may be ciphertext.data() itself). On a
/// mismatch `out` is zeroed and the result is false: no unauthenticated
/// plaintext survives. The tag comparison is constant-time.
[[nodiscard]] bool aead_open(const Digest& key, const AeadNonce& nonce,
                             std::span<const std::uint8_t> aad,
                             std::span<const std::uint8_t> ciphertext,
                             const AeadTag& tag, std::uint8_t* out);

/// True when `tag` authenticates `aad` and `ciphertext`; decrypts nothing.
[[nodiscard]] bool aead_verify(const Digest& key, const AeadNonce& nonce,
                               std::span<const std::uint8_t> aad,
                               std::span<const std::uint8_t> ciphertext,
                               const AeadTag& tag);

/// A nonce no other call in this process returns, unpredictable across
/// processes: word i of one process-wide ChaCha20 stream keyed once from
/// std::random_device, i taken from an atomic counter. The one unseeded
/// draw in the runtime (DESIGN.md §10, §12).
AeadNonce fresh_nonce();

}  // namespace cppflare::core
