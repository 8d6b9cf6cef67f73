#include "flare/secure_channel.h"

#include <algorithm>

#include "core/aead.h"
#include "core/bytes.h"
#include "core/error.h"
#include "core/sha256.h"
#include "flare/secure_channel_nonce.h"

namespace cppflare::flare {

namespace {
constexpr std::uint32_t kEnvelopeMagic = 0x324e4546;    // "FEN2"
constexpr std::uint32_t kEnvelopeMagicV1 = 0x46454e56;  // "VNEF": HMAC, plaintext
constexpr std::size_t kMagicBytes = 4;
constexpr std::size_t kNonceBytes = std::tuple_size_v<core::AeadNonce>;
constexpr std::size_t kTagBytes = std::tuple_size_v<core::AeadTag>;

core::Digest derive_key(const std::vector<std::uint8_t>& secret) {
  static constexpr char kLabel[] = "cppflare/envelope/v2";
  return core::hmac_sha256(secret, reinterpret_cast<const std::uint8_t*>(kLabel),
                           sizeof(kLabel) - 1);
}

void check_magic(std::uint32_t magic) {
  if (magic == kEnvelopeMagic) return;
  if (magic == kEnvelopeMagicV1) {
    throw ProtocolError("envelope: v1 (HMAC, unencrypted) frame; only v2 is accepted");
  }
  throw ProtocolError("envelope: bad magic");
}

/// A parsed, not yet authenticated frame.
struct Frame {
  std::string sender;
  std::string job_id;
  std::uint64_t sequence = 0;
  core::AeadNonce nonce;
  core::AeadTag tag;
  std::span<const std::uint8_t> aad;         // sender through nonce
  std::span<const std::uint8_t> ciphertext;  // the payload
};

Frame parse(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  check_magic(r.read_u32());
  Frame f;
  f.sender = r.read_string();
  f.job_id = r.read_string();
  f.sequence = r.read_u64();
  const std::uint64_t n = r.read_u64();
  // Written as subtractions: `n + 28` wraps for a hostile length near 2^64
  // and would pass the check.
  constexpr std::size_t kFixed = kNonceBytes + kTagBytes;
  if (r.remaining() < kFixed || r.remaining() - kFixed < n) {
    throw ProtocolError("envelope: truncated");
  }
  if (r.remaining() - kFixed != n) throw ProtocolError("envelope: trailing bytes");
  const std::span<const std::uint8_t> bytes(sealed);
  const std::size_t payload_at = r.position() + kNonceBytes;
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(r.position()), kNonceBytes,
              f.nonce.begin());
  f.aad = bytes.subspan(kMagicBytes, payload_at - kMagicBytes);
  f.ciphertext = bytes.subspan(payload_at, static_cast<std::size_t>(n));
  const auto tag = bytes.subspan(payload_at + f.ciphertext.size(), kTagBytes);
  std::copy(tag.begin(), tag.end(), f.tag.begin());
  return f;
}

[[noreturn]] void reject(const Frame& f) {
  throw ProtocolError("envelope: tag verification failed for sender '" + f.sender + "'");
}

// A frame-sized buffer freed to malloc goes back to the kernel, and the
// next open faults it in again page by page (a BERT frame is 2,400 pages).
// Each thread keeps the largest storage of the envelopes it dropped and
// opens its next frame into it; growing within it zero-fills only the added
// bytes.
thread_local std::vector<std::uint8_t> spare_storage;

std::vector<std::uint8_t> storage_for(std::size_t n) {
  std::vector<std::uint8_t> storage;
  storage.swap(spare_storage);
  if (storage.capacity() < n) storage.clear();  // reallocating copies nothing
  storage.resize(n);
  return storage;
}

void recycle(std::vector<std::uint8_t>& storage) {
  if (storage.capacity() > spare_storage.capacity()) spare_storage.swap(storage);
}

void take_header(Frame& f, Envelope& env) {
  env.sender = std::move(f.sender);
  env.job_id = std::move(f.job_id);
  env.sequence = f.sequence;
}
}  // namespace

ChannelKey::ChannelKey() : ChannelKey(std::vector<std::uint8_t>{}) {}

ChannelKey::ChannelKey(const std::vector<std::uint8_t>& secret)
    : unkeyed_(secret.empty()) {
  static const core::Digest kUnkeyed = derive_key({});
  digest_ = unkeyed_ ? kUnkeyed : derive_key(secret);
}

std::map<std::string, ChannelKey> channel_keys(
    const std::map<std::string, Credential>& registry) {
  std::map<std::string, ChannelKey> keys;
  for (const auto& [name, credential] : registry) keys.emplace(name, credential.secret);
  return keys;
}

// Wire layout: magic | sender | job_id | sequence | u64 length | nonce |
// ciphertext | tag. The associated data is everything from the sender
// through the nonce, so both ends authenticate the header in place.
std::vector<std::uint8_t> seal_encoded_with_nonce(
    const std::string& sender, const ChannelKey& key, std::uint64_t sequence,
    std::size_t payload_size, const PayloadEncoder& encode, const std::string& job_id,
    const core::AeadNonce& nonce) {
  core::ByteWriter w;
  w.reserve(kMagicBytes + core::encoded_size(sender) + core::encoded_size(job_id) +
            8 + 8 + kNonceBytes + payload_size + kTagBytes);
  w.write_u32(kEnvelopeMagic);
  w.write_string(sender);
  w.write_string(job_id);
  w.write_u64(sequence);
  w.write_u64(payload_size);
  w.write_raw(nonce.data(), nonce.size());
  const std::size_t payload_at = w.size();
  encode(w);
  if (w.size() - payload_at != payload_size) {
    throw Error("seal: payload encoder wrote " +
                std::to_string(w.size() - payload_at) + " bytes, sized for " +
                std::to_string(payload_size));
  }
  std::vector<std::uint8_t> frame = w.take();
  // Encrypted in place; the tag lands within the reservation.
  const std::span<std::uint8_t> bytes(frame);
  const core::AeadTag tag = core::aead_seal(
      key.digest(), nonce, bytes.subspan(kMagicBytes, payload_at - kMagicBytes),
      bytes.subspan(payload_at));
  frame.insert(frame.end(), tag.begin(), tag.end());
  return frame;
}

std::vector<std::uint8_t> seal_with_nonce(const std::string& sender, const ChannelKey& key,
                                          std::uint64_t sequence,
                                          const std::vector<std::uint8_t>& payload,
                                          const std::string& job_id,
                                          const core::AeadNonce& nonce) {
  return seal_encoded_with_nonce(
      sender, key, sequence, payload.size(),
      [&payload](core::ByteWriter& w) { w.write_raw(payload.data(), payload.size()); },
      job_id, nonce);
}

std::vector<std::uint8_t> seal_encoded(const std::string& sender, const ChannelKey& key,
                                       std::uint64_t sequence, std::size_t payload_size,
                                       const PayloadEncoder& encode,
                                       const std::string& job_id) {
  return seal_encoded_with_nonce(sender, key, sequence, payload_size, encode, job_id,
                                 core::fresh_nonce());
}

std::vector<std::uint8_t> seal(const std::string& sender, const ChannelKey& key,
                               std::uint64_t sequence,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& job_id) {
  return seal_with_nonce(sender, key, sequence, payload, job_id, core::fresh_nonce());
}

Envelope open(const std::vector<std::uint8_t>& sealed, const ChannelKey& key) {
  Frame f = parse(sealed);
  Envelope env;
  env.storage_ = storage_for(f.ciphertext.size());
  if (!core::aead_open(key.digest(), f.nonce, f.aad, f.ciphertext, f.tag,
                       env.storage_.data())) {
    reject(f);
  }
  take_header(f, env);
  env.payload = env.storage_;
  return env;
}

Envelope open(std::vector<std::uint8_t>&& sealed, const ChannelKey& key) {
  Frame f = parse(sealed);
  auto* payload = const_cast<std::uint8_t*>(f.ciphertext.data());  // sealed is ours
  if (!core::aead_open(key.digest(), f.nonce, f.aad, f.ciphertext, f.tag,
                       payload)) {
    reject(f);
  }
  Envelope env;
  take_header(f, env);
  env.payload = {payload, f.ciphertext.size()};
  env.storage_ = std::move(sealed);  // the buffer, and so the view, stays put
  return env;
}

Envelope::~Envelope() { recycle(storage_); }

Envelope& Envelope::operator=(Envelope&& other) noexcept {
  recycle(storage_);
  sender = std::move(other.sender);
  job_id = std::move(other.job_id);
  sequence = other.sequence;
  payload = other.payload;
  storage_ = std::move(other.storage_);
  return *this;
}

void verify(const std::vector<std::uint8_t>& sealed, const ChannelKey& key) {
  const Frame f = parse(sealed);
  if (!core::aead_verify(key.digest(), f.nonce, f.aad, f.ciphertext, f.tag)) {
    reject(f);
  }
}

std::string peek_sender(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  check_magic(r.read_u32());
  return r.read_string();
}

std::string peek_job(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  check_magic(r.read_u32());
  (void)r.read_string();  // sender
  return r.read_string();
}

void SequenceTracker::check_and_advance(const std::string& sender,
                                        std::uint64_t sequence) {
  core::MutexLock lock(mu_);
  auto it = last_.try_emplace(sender, 0).first;
  // Fresh senders start at 0, so any valid sequence is >= 1.
  if (sequence <= it->second) {
    throw ProtocolError("envelope: replayed or stale sequence from '" + sender +
                        "'");
  }
  it->second = sequence;
}

}  // namespace cppflare::flare
