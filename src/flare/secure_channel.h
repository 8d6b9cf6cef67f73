// Authenticated, encrypted message envelopes.
//
// Every protocol frame is wrapped in an envelope carrying the sender name,
// the job binding, a strictly increasing sequence number and the payload,
// sealed with ChaCha20-Poly1305 (RFC 8439, core/aead.h) under a key derived
// from the sender's provisioned secret. The header travels in the clear as
// associated data; the payload is encrypted. The receiver checks the tag
// (constant time) and enforces sequence monotonicity per sender, which
// defeats eavesdropping, tampering and replay on an untrusted transport —
// the role TLS plays in a production NVFlare deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/bytes.h"
#include "core/sha256.h"
#include "core/thread_annotations.h"
#include "flare/provision.h"

namespace cppflare::flare {

/// The envelope key of one secret: HMAC-SHA256(secret,
/// "cppflare/envelope/v2"), the provisioned secret domain-separated from its
/// other uses. The HMAC costs four SHA-256 blocks, as much as the whole
/// cipher pass over a small control frame, so whoever holds a credential
/// derives its key once (`channel_keys`) and seals and opens with that; a
/// bare secret converts implicitly and derives per call.
class ChannelKey {
 public:
  /// The empty secret's key: replies to a peer nobody vouched for, which
  /// no receiver can verify.
  ChannelKey();
  ChannelKey(const std::vector<std::uint8_t>& secret);

  bool unkeyed() const { return unkeyed_; }
  const core::Digest& digest() const { return digest_; }

 private:
  core::Digest digest_;
  bool unkeyed_;
};

/// Every credential's envelope key, keyed like `registry`.
std::map<std::string, ChannelKey> channel_keys(
    const std::map<std::string, Credential>& registry);

/// An opened frame. Move-only: it owns the plaintext `payload` views.
struct Envelope {
  Envelope() = default;
  Envelope(Envelope&&) noexcept = default;
  Envelope& operator=(Envelope&& other) noexcept;
  Envelope(const Envelope&) = delete;
  Envelope& operator=(const Envelope&) = delete;
  ~Envelope();

  std::string sender;
  /// Job binding (multi-job coordinator, DESIGN.md §16): the job this frame
  /// belongs to, authenticated with the frame so cross-job replays fail
  /// closed. Every site frame carries one; only replies the router could
  /// not verify are sealed unbound (empty).
  std::string job_id;
  std::uint64_t sequence = 0;
  /// The decrypted payload, held by this envelope: valid while it lives
  /// (moving the envelope keeps the view valid).
  std::span<const std::uint8_t> payload;

 private:
  friend Envelope open(const std::vector<std::uint8_t>& sealed,
                       const ChannelKey& key);
  friend Envelope open(std::vector<std::uint8_t>&& sealed, const ChannelKey& key);

  /// The payload's storage: a decrypted copy (open(const&)) or the frame
  /// itself (open(&&)). This thread keeps it for its next open when the
  /// envelope dies (secure_channel.cpp).
  std::vector<std::uint8_t> storage_;
};

/// Appends exactly the payload bytes it was sized for to the envelope
/// under construction.
using PayloadEncoder = std::function<void(core::ByteWriter&)>;

/// The sealing path: writes the envelope header into one buffer reserved
/// for the whole frame, lets `encode` append the `payload_size` payload
/// bytes in place, then encrypts and tags them in place under a fresh
/// nonce. Throws Error when `encode` writes a different number of bytes.
std::vector<std::uint8_t> seal_encoded(const std::string& sender,
                                       const ChannelKey& key,
                                       std::uint64_t sequence,
                                       std::size_t payload_size,
                                       const PayloadEncoder& encode,
                                       const std::string& job_id = {});

/// Seals `payload` as `sender` with `sequence`, bound to `job_id` (empty =
/// unbound; servers reject unbound site frames): seal_encoded with an
/// encoder that copies `payload`.
std::vector<std::uint8_t> seal(const std::string& sender, const ChannelKey& key,
                               std::uint64_t sequence,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& job_id = {});

/// Parses, verifies and decrypts an envelope under `key` into a
/// plaintext buffer the returned Envelope owns; `sealed` is left as it
/// was. Throws ProtocolError on malformed input, a v1 frame or a tag
/// mismatch (Error subtypes on truncation). Does NOT check the sequence;
/// callers with per-sender state use `SequenceTracker`.
Envelope open(const std::vector<std::uint8_t>& sealed, const ChannelKey& key);
/// The in-place path for a frame the caller hands over (a received
/// reply): decrypts inside it and keeps it as the payload's storage, so no
/// second buffer is allocated. On a tag mismatch the decrypted bytes are
/// wiped before the ProtocolError leaves.
Envelope open(std::vector<std::uint8_t>&& sealed, const ChannelKey& key);

/// Checks the frame's tag without decrypting its payload (the job router's
/// wrong-job answer needs only to know the frame is authentic). Throws like
/// `open`.
void verify(const std::vector<std::uint8_t>& sealed, const ChannelKey& key);

/// Parses only the sender name (needed to look up the right secret before
/// verification).
std::string peek_sender(const std::vector<std::uint8_t>& sealed);

/// Parses only the job binding — the router's routing key. Unverified until
/// `open` succeeds; a forged job id at worst routes the frame to a job whose
/// tag check then rejects it.
std::string peek_job(const std::vector<std::uint8_t>& sealed);

/// Enforces strictly increasing sequence numbers per sender. Thread-safe.
class SequenceTracker {
 public:
  /// Throws ProtocolError if `sequence` is not strictly greater than the
  /// last accepted value for `sender`.
  void check_and_advance(const std::string& sender, std::uint64_t sequence);

 private:
  core::Mutex mu_;
  std::map<std::string, std::uint64_t> last_ CF_GUARDED_BY(mu_);
};

/// Client-side sequence source.
class SequenceSource {
 public:
  std::uint64_t next() { return ++value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Per-sender outbound sequence counters, shareable across sealers.
/// Thread-safe. A multi-job coordinator seals as "server" from the job
/// router *and* from every hosted FederatedServer; handing them one pool
/// keeps the sequences a given client observes strictly increasing no
/// matter which component answered (SequenceTracker on the client side
/// rejects anything else as a replay).
class SequencePool {
 public:
  std::uint64_t next(const std::string& sender) {
    core::MutexLock lock(mu_);
    return ++last_[sender];
  }

  /// Peers with a counter.
  std::size_t size() const {
    core::MutexLock lock(mu_);
    return last_.size();
  }

 private:
  mutable core::Mutex mu_;
  std::map<std::string, std::uint64_t> last_ CF_GUARDED_BY(mu_);
};

/// The sequence of a reply sealed under the empty key: a peer the sealer
/// could not identify holds no counter, and no SequenceTracker accepts 0.
inline constexpr std::uint64_t kUnkeyedReplySequence = 0;

}  // namespace cppflare::flare
