#include "flare/secure_channel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/error.h"

namespace cppflare::flare {
namespace {

std::vector<std::uint8_t> key_a() { return std::vector<std::uint8_t>(32, 0x11); }
std::vector<std::uint8_t> key_b() { return std::vector<std::uint8_t>(32, 0x22); }

TEST(SecureChannel, SealOpenRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto sealed = seal("site-1", key_a(), 7, payload);
  const Envelope env = open(sealed, key_a());
  EXPECT_EQ(env.sender, "site-1");
  EXPECT_EQ(env.sequence, 7u);
  EXPECT_TRUE(std::ranges::equal(env.payload, payload));
}

// The sealed bytes for fixed inputs, pinned so that no change to the
// envelope code or the SHA-256 kernels can alter the wire format. The MAC
// input (sender through payload) spans three SHA-256 blocks.
TEST(SecureChannel, GoldenFrameIsStable) {
  std::vector<std::uint8_t> secret(32), payload(77);
  for (int i = 0; i < 32; ++i) secret[i] = static_cast<std::uint8_t>(0xa0 + i);
  for (int i = 0; i < 77; ++i) payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const auto sealed =
      seal("site-3", secret, 0x0102030405060708ull, payload, "adr-bert");
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : sealed) {
    hex.push_back(kHex[b >> 4]);
    hex.push_back(kHex[b & 0xf]);
  }
  EXPECT_EQ(hex,
            "564e454606000000736974652d33080000006164722d626572740807060504030201"
            "4d00000000000000030a11181f262d343b424950575e656c737a81888f969da4ab"
            "b2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b92"
            "99a0a7aeb5bcc3cad1d8dfe6edf4fb020910175e99db9b7c81e04554ab21b87b80"
            "43a15cfc7d3dd3b688ec42f60585e0c8f0ae");
  const Envelope env = open(sealed, secret);
  EXPECT_EQ(env.sender, "site-3");
  EXPECT_EQ(env.job_id, "adr-bert");
  EXPECT_EQ(env.sequence, 0x0102030405060708ull);
  EXPECT_TRUE(std::ranges::equal(env.payload, payload));
}

TEST(SecureChannel, OpenViewsThePayloadInPlace) {
  const std::vector<std::uint8_t> payload = {4, 5, 6};
  const auto sealed = seal("site-1", key_a(), 3, payload, "job");
  const Envelope env = open(sealed, key_a());
  // No copy: the payload is the three bytes before the 32-byte MAC.
  EXPECT_EQ(env.payload.data(), sealed.data() + sealed.size() - 32 - 3);
  EXPECT_EQ(env.payload.size(), 3u);
}

TEST(SecureChannel, SealEncodedMatchesSealAndChecksTheDeclaredSize) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  const auto write = [&](core::ByteWriter& w) {
    w.write_raw(payload.data(), payload.size());
  };
  EXPECT_EQ(seal_encoded("site-2", key_a(), 5, payload.size(), write, "job"),
            seal("site-2", key_a(), 5, payload, "job"));
  // A payload size that disagrees with what the encoder writes would put a
  // wrong length on the wire: refused before anything is MACed.
  EXPECT_THROW((void)seal_encoded("site-2", key_a(), 5, 3, write), Error);
  EXPECT_THROW((void)seal_encoded("site-2", key_a(), 5, 5, write), Error);
}

TEST(SecureChannel, EmptyPayloadAllowed) {
  const auto sealed = seal("s", key_a(), 1, {});
  EXPECT_TRUE(open(sealed, key_a()).payload.empty());
}

TEST(SecureChannel, WrongKeyFailsVerification) {
  const auto sealed = seal("site-1", key_a(), 1, {9, 9});
  EXPECT_THROW(open(sealed, key_b()), ProtocolError);
}

TEST(SecureChannel, TamperedPayloadDetected) {
  auto sealed = seal("site-1", key_a(), 1, {1, 2, 3, 4});
  // Flip one payload byte (skip the header area deterministically: the
  // payload sits before the trailing 32-byte MAC).
  sealed[sealed.size() - 33] ^= 0x01;
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, TamperedSequenceDetected) {
  // Sequence participates in the MAC; changing it must break verification.
  auto s1 = seal("x", key_a(), 1, {5});
  auto s2 = seal("x", key_a(), 2, {5});
  // Splice s2's sequence bytes into s1: find differing region by length —
  // simplest robust check is that the two seals differ and each opens only
  // as itself.
  EXPECT_NE(s1, s2);
  EXPECT_EQ(open(s1, key_a()).sequence, 1u);
  EXPECT_EQ(open(s2, key_a()).sequence, 2u);
}

TEST(SecureChannel, TamperedSenderDetected) {
  auto sealed = seal("ab", key_a(), 1, {1});
  // Sender string bytes start at offset 8 (magic + length prefix).
  sealed[8] ^= 0xff;
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, MalformedEnvelopeRejected) {
  const std::vector<std::uint8_t> short_frame = {1, 2, 3};
  EXPECT_THROW(open(short_frame, key_a()), Error);
  std::vector<std::uint8_t> bad(64, 0);
  EXPECT_THROW(open(bad, key_a()), ProtocolError);
}

TEST(SecureChannel, TrailingBytesRejected) {
  auto sealed = seal("s", key_a(), 1, {7});
  sealed.push_back(0);
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, PeekSenderWithoutKey) {
  const auto sealed = seal("site-42", key_a(), 3, {1});
  EXPECT_EQ(peek_sender(sealed), "site-42");
  EXPECT_THROW(peek_sender({0, 0, 0, 0}), ProtocolError);
}

TEST(SequenceTrackerTest, EnforcesMonotonicity) {
  SequenceTracker tracker;
  tracker.check_and_advance("a", 1);
  tracker.check_and_advance("a", 2);
  tracker.check_and_advance("a", 10);
  EXPECT_THROW(tracker.check_and_advance("a", 10), ProtocolError);  // replay
  EXPECT_THROW(tracker.check_and_advance("a", 5), ProtocolError);   // stale
  // Independent per sender.
  tracker.check_and_advance("b", 1);
}

TEST(SequenceTrackerTest, ZeroIsNeverValid) {
  SequenceTracker tracker;
  EXPECT_THROW(tracker.check_and_advance("a", 0), ProtocolError);
}

TEST(SequenceSourceTest, StartsAtOneAndIncrements) {
  SequenceSource s;
  EXPECT_EQ(s.next(), 1u);
  EXPECT_EQ(s.next(), 2u);
}

TEST(SecureChannel, ReplayDefenseEndToEnd) {
  SequenceTracker tracker;
  const auto sealed = seal("site-1", key_a(), 1, {1, 2});
  const Envelope env = open(sealed, key_a());
  tracker.check_and_advance(env.sender, env.sequence);
  // Replaying the identical envelope must now fail.
  const Envelope replayed = open(sealed, key_a());
  EXPECT_THROW(tracker.check_and_advance(replayed.sender, replayed.sequence),
               ProtocolError);
}

}  // namespace
}  // namespace cppflare::flare
