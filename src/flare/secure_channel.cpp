#include "flare/secure_channel.h"

#include <algorithm>

#include "core/bytes.h"
#include "core/error.h"
#include "core/sha256.h"

namespace cppflare::flare {

namespace {
constexpr std::uint32_t kEnvelopeMagic = 0x46454e56;  // "FENV"
constexpr std::size_t kMagicBytes = 4;
constexpr std::size_t kMacBytes = std::tuple_size_v<core::Digest>;
}  // namespace

// Wire layout: magic | sender | job_id | sequence | u64 length | payload |
// MAC. The MAC covers everything between the magic and the MAC itself, so
// both ends hash the envelope bytes in place.
std::vector<std::uint8_t> seal(const std::string& sender,
                               const std::vector<std::uint8_t>& secret,
                               std::uint64_t sequence,
                               const std::vector<std::uint8_t>& payload,
                               const std::string& job_id) {
  core::ByteWriter w;
  w.reserve(kMagicBytes + 4 + sender.size() + 4 + job_id.size() + 8 + 8 +
            payload.size() + kMacBytes);
  w.write_u32(kEnvelopeMagic);
  w.write_string(sender);
  w.write_string(job_id);
  w.write_u64(sequence);
  w.write_u64(payload.size());
  w.write_raw(payload.data(), payload.size());
  const core::Digest mac = core::hmac_sha256(
      secret, w.bytes().data() + kMagicBytes, w.size() - kMagicBytes);
  w.write_raw(mac.data(), mac.size());
  return w.take();
}

Envelope open(const std::vector<std::uint8_t>& sealed,
              const std::vector<std::uint8_t>& secret) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
  Envelope env;
  env.sender = r.read_string();
  env.job_id = r.read_string();
  env.sequence = r.read_u64();
  const std::uint64_t n = r.read_u64();
  // Written as a subtraction: `n + 32` wraps for a hostile length near
  // 2^64 and would pass the check.
  if (r.remaining() < kMacBytes || r.remaining() - kMacBytes < n) {
    throw ProtocolError("envelope: truncated");
  }
  if (r.remaining() - kMacBytes != n) throw ProtocolError("envelope: trailing bytes");
  const std::size_t payload_at = r.position();
  const std::size_t mac_at = payload_at + static_cast<std::size_t>(n);
  core::Digest mac;
  std::copy_n(sealed.begin() + static_cast<std::ptrdiff_t>(mac_at), kMacBytes,
              mac.begin());
  const core::Digest expect = core::hmac_sha256(
      secret, sealed.data() + kMagicBytes, mac_at - kMagicBytes);
  if (!core::digests_equal(mac, expect)) {
    throw ProtocolError("envelope: MAC verification failed for sender '" +
                        env.sender + "'");
  }
  env.payload.assign(sealed.begin() + static_cast<std::ptrdiff_t>(payload_at),
                     sealed.begin() + static_cast<std::ptrdiff_t>(mac_at));
  return env;
}

std::string peek_sender(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
  return r.read_string();
}

std::string peek_job(const std::vector<std::uint8_t>& sealed) {
  core::ByteReader r(sealed);
  if (r.read_u32() != kEnvelopeMagic) throw ProtocolError("envelope: bad magic");
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
