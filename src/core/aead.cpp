#include "core/aead.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <random>

namespace cppflare::core {

namespace {

static_assert(std::endian::native == std::endian::little,
              "keystream words are used as bytes in host order");

// Payload bytes per step: a chunk and its keystream stay in L1 between the
// cipher pass and the MAC pass over it.
constexpr std::size_t kChunkBytes = 8192;
// The payload's keystream starts at block counter 1.
constexpr std::uint64_t kFirstPayloadWord = 16;

/// out = in ^ keystream for payload bytes [offset, offset + n), where
/// `offset` is a multiple of kChunkBytes and n <= kChunkBytes. `out` may be
/// `in`: each 32-byte step loads before it stores.
void apply_keystream(const KeyedStream& stream, std::size_t offset,
                     const std::uint8_t* in, std::uint8_t* out, std::size_t n) {
  alignas(64) std::uint32_t words[kChunkBytes / 4];
  // R11-exempt: KeyedStream::read returns void (Wal::read shares the name)
  stream.read(kFirstPayloadWord + offset / 4, (n + 3) / 4, words);
  const auto* ks = reinterpret_cast<const std::uint8_t*>(words);
  using Vec = std::uint8_t __attribute__((vector_size(32)));
  std::size_t i = 0;
  for (; i + sizeof(Vec) <= n; i += sizeof(Vec)) {
    Vec a, k;
    std::memcpy(&a, in + i, sizeof(Vec));
    std::memcpy(&k, ks + i, sizeof(Vec));
    a ^= k;
    std::memcpy(out + i, &a, sizeof(Vec));
  }
  for (; i < n; ++i) out[i] = in[i] ^ ks[i];
}

/// The RFC 8439 §2.8 tag over `aad` and the ciphertext that `step(at, n,
/// mac)` feeds to `mac` chunk by chunk (doing its cipher work in between).
template <class Step>
AeadTag tag_chunks(const KeyedStream& stream, std::span<const std::uint8_t> aad,
                   std::size_t size, Step step) {
  std::uint32_t key_words[8];
  // R11-exempt: KeyedStream::read returns void; block 0 is the Poly1305 key
  stream.read(0, 8, key_words);
  Poly1305::Key poly_key;
  std::memcpy(poly_key.data(), key_words, poly_key.size());
  Poly1305 mac(poly_key);
  mac.update(aad.data(), aad.size());
  mac.pad16();
  for (std::size_t at = 0; at < size; at += kChunkBytes) {
    step(at, std::min(kChunkBytes, size - at), mac);
  }
  mac.pad16();
  const std::uint64_t lengths[2] = {aad.size(), size};
  mac.update(reinterpret_cast<const std::uint8_t*>(lengths), sizeof(lengths));
  return mac.finish();
}

}  // namespace

AeadTag aead_seal(const Digest& key, const AeadNonce& nonce,
                  std::span<const std::uint8_t> aad, std::span<std::uint8_t> data) {
  const KeyedStream stream(key, nonce);
  std::uint8_t* p = data.data();
  return tag_chunks(stream, aad, data.size(),
                    [&](std::size_t at, std::size_t n, Poly1305& mac) {
                      apply_keystream(stream, at, p + at, p + at, n);
                      mac.update(p + at, n);
                    });
}

bool aead_open(const Digest& key, const AeadNonce& nonce,
               std::span<const std::uint8_t> aad,
               std::span<const std::uint8_t> ciphertext, const AeadTag& tag,
               std::uint8_t* out) {
  const KeyedStream stream(key, nonce);
  const std::uint8_t* c = ciphertext.data();
  const AeadTag expect = tag_chunks(stream, aad, ciphertext.size(),
                                    [&](std::size_t at, std::size_t n, Poly1305& mac) {
                                      mac.update(c + at, n);
                                      apply_keystream(stream, at, c + at, out + at, n);
                                    });
  if (tags_equal(expect, tag)) return true;
  if (!ciphertext.empty()) std::memset(out, 0, ciphertext.size());
  return false;
}

bool aead_verify(const Digest& key, const AeadNonce& nonce,
                 std::span<const std::uint8_t> aad,
                 std::span<const std::uint8_t> ciphertext, const AeadTag& tag) {
  const KeyedStream stream(key, nonce);
  const std::uint8_t* c = ciphertext.data();
  return tags_equal(tag_chunks(stream, aad, ciphertext.size(),
                               [&](std::size_t at, std::size_t n, Poly1305& mac) {
                                 mac.update(c + at, n);
                               }),
                    tag);
}

AeadNonce fresh_nonce() {
  static const KeyedStream source = [] {
    std::random_device device;
    Digest key;
    for (std::size_t i = 0; i < key.size(); i += 4) {
      const std::uint32_t word = device();
      std::memcpy(key.data() + i, &word, 4);
    }
    return KeyedStream(key, KeyedStream::Nonce{});
  }();
  // Each thread claims whole blocks and cuts four nonces from each (three
  // words apiece, one word unused), so a block is never shared.
  static std::atomic<std::uint64_t> next_block{0};
  thread_local std::uint32_t block[16];
  thread_local std::size_t taken = 4;
  if (taken == 4) {
    // R11-exempt: KeyedStream::read returns void (Wal::read shares the name)
    source.read(16 * next_block.fetch_add(1, std::memory_order_relaxed),
                16, block);
    taken = 0;
  }
  AeadNonce nonce;
  std::memcpy(nonce.data(), block + 4 * taken++, nonce.size());
  return nonce;
}

}  // namespace cppflare::core
