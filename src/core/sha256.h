// Self-contained SHA-256 and HMAC-SHA256.
//
// NVFlare provisions participants with certificates and authenticates
// traffic over TLS. Our reproduction keeps the same *shape* — every frame a
// client sends carries a MAC keyed by a per-participant secret issued at
// provisioning time — using HMAC-SHA256 implemented here from the FIPS
// 180-4 specification (no external crypto dependency is available offline).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cppflare::core {

using Digest = std::array<std::uint8_t, 32>;

enum class Sha256Kernel : std::uint8_t;  // core/sha256_kernel.h

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  /// Hashes with the compression kernel picked for this CPU.
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::string& s);
  void update(const std::vector<std::uint8_t>& v);

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(const std::uint8_t* data, std::size_t len);
  static Digest hash(const std::string& s);

 private:
  /// Compresses `nblocks` whole 64-byte blocks into `state`.
  using Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

  explicit Sha256(Compress compress);
  friend Sha256 sha256_with_kernel(Sha256Kernel kernel);

  void process_blocks(const std::uint8_t* data, std::size_t nblocks) {
    compress_(state_.data(), data, nblocks);
  }

  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA256 per RFC 2104.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message);

/// Lowercase hex encoding of a digest.
std::string to_hex(const Digest& digest);

/// Constant-time digest comparison (avoids MAC timing side channels).
bool digests_equal(const Digest& a, const Digest& b);

}  // namespace cppflare::core
