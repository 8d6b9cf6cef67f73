#include "flare/secure_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/aead.h"
#include "core/wal.h"
#include "core/error.h"
#include "core/sha256.h"
#include "flare/aggregator.h"
#include "flare/jobs.h"
#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/persistor.h"
#include "flare/secure_channel_nonce.h"
#include "flare/transport.h"

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

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex.push_back(kHex[b >> 4]);
    hex.push_back(kHex[b & 0xf]);
  }
  return hex;
}

/// Byte offsets of a frame's fields (the header layout is the v1 one up to
/// the length; the nonce follows it).
struct Layout {
  std::size_t sender, job, sequence, length, nonce, payload, tag;
};

Layout layout_of(const std::string& sender, const std::string& job,
                 std::size_t payload_size) {
  Layout l;
  l.sender = 4 + 4;
  l.job = l.sender + sender.size() + 4;
  l.sequence = l.job + job.size();
  l.length = l.sequence + 8;
  l.nonce = l.length + 8;
  l.payload = l.nonce + 12;
  l.tag = l.payload + payload_size;
  return l;
}

core::AeadNonce nonce_in(const std::vector<std::uint8_t>& frame) {
  core::ByteReader r(frame);
  (void)r.read_u32();
  (void)r.read_string();
  (void)r.read_string();
  (void)r.read_u64();
  (void)r.read_u64();
  const std::vector<std::uint8_t> bytes = r.read_raw(12);
  core::AeadNonce nonce{};
  std::copy(bytes.begin(), bytes.end(), nonce.begin());
  return nonce;
}

// The sealed bytes for fixed inputs and a pinned nonce, so that no change
// to the envelope code or the ChaCha20/Poly1305/SHA-256 kernels can alter
// the wire format. The expected frame comes from an independent
// implementation (the `cryptography` package, 48.0.0):
//   key = hmac.new(secret, b"cppflare/envelope/v2", sha256).digest()
//   aad = s(b"site-3") + s(b"adr-bert") + le64(seq) + le64(77) + nonce
//   frame = le32(0x324e4546) + aad + ChaCha20Poly1305(key).encrypt(nonce, payload, aad)
// where s(x) = le32(len(x)) + x.
TEST(SecureChannel, GoldenV2FrameIsStable) {
  std::vector<std::uint8_t> secret(32), payload(77);
  for (int i = 0; i < 32; ++i) secret[i] = static_cast<std::uint8_t>(0xa0 + i);
  for (int i = 0; i < 77; ++i) payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  core::AeadNonce nonce;
  for (int i = 0; i < 12; ++i) nonce[i] = static_cast<std::uint8_t>(0x60 + i);
  const auto sealed = seal_encoded_with_nonce(
      "site-3", secret, 0x0102030405060708ull, payload.size(),
      [&](core::ByteWriter& w) { w.write_raw(payload.data(), payload.size()); },
      "adr-bert", nonce);
  EXPECT_EQ(hex_of(sealed),
            "46454e3206000000736974652d33080000006164722d6265727408070605040302"
            "014d00000000000000606162636465666768696a6b3f04a7eddaafdd68cd8ab674"
            "d57e258eb5ebc967cd5b6e6fc8949187a99ae92e9375ae655335bfa5fea7e92fcb"
            "2c6e572a84a18acf1e8eea8b6bf36115b0a5c8368889e1dfd440fa6ad7b843938e"
            "ea28c763a93862cda6b0d39c4ffb39");
  const Envelope env = open(sealed, secret);
  EXPECT_EQ(env.sender, "site-3");
  EXPECT_EQ(env.job_id, "adr-bert");
  EXPECT_EQ(env.sequence, 0x0102030405060708ull);
  EXPECT_TRUE(std::ranges::equal(env.payload, payload));
}

// A frame the caller hands over is decrypted where it lies: the payload
// views the frame's own buffer, now owned by the envelope.
TEST(SecureChannel, OpenInPlaceDecryptsInsideTheHandedOverFrame) {
  const std::vector<std::uint8_t> payload = {4, 5, 6};
  auto sealed = seal("site-1", key_a(), 3, payload, "job");
  const std::uint8_t* frame = sealed.data();
  const std::size_t size = sealed.size();
  Envelope env = open(std::move(sealed), key_a());
  // The payload is the three bytes before the 16-byte tag.
  EXPECT_EQ(env.payload.data(), frame + size - 16 - 3);
  EXPECT_TRUE(std::ranges::equal(env.payload, payload));
  // Moving the envelope keeps the view valid.
  const Envelope moved = std::move(env);
  EXPECT_EQ(moved.payload.data(), frame + size - 16 - 3);
  EXPECT_TRUE(std::ranges::equal(moved.payload, payload));
}

// A failed in-place open leaves no decrypted byte behind in the frame.
TEST(SecureChannel, FailedInPlaceOpenWipesThePayload) {
  const std::vector<std::uint8_t> payload(100, 0x41);
  auto sealed = seal("site-1", key_a(), 3, payload, "job");
  sealed.back() ^= 1;  // the tag
  const Layout l = layout_of("site-1", "job", payload.size());
  EXPECT_THROW((void)open(std::move(sealed), key_a()), ProtocolError);
  ASSERT_EQ(sealed.size(), l.tag + 16);  // NOLINT(bugprone-use-after-move): kept on throw
  EXPECT_TRUE(std::all_of(sealed.begin() + static_cast<std::ptrdiff_t>(l.payload),
                          sealed.begin() + static_cast<std::ptrdiff_t>(l.tag),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(SecureChannel, SealedPayloadDoesNotContainItsPlaintext) {
  const std::string text =
      "patient 4711: adverse drug reaction to warfarin after 3 doses; ";
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 8; ++i) payload.insert(payload.end(), text.begin(), text.end());
  const auto sealed = seal("site-1", key_a(), 1, payload, "job");
  for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
    const auto window = std::span(payload).subspan(at, 8);
    ASSERT_EQ(std::search(sealed.begin(), sealed.end(), window.begin(), window.end()),
              sealed.end())
        << "plaintext bytes " << at << ".." << at + 8 << " appear in the frame";
  }
  EXPECT_TRUE(std::ranges::equal(open(sealed, key_a()).payload, payload));
}

// Every field is authenticated: a change to any byte of the sender, job,
// sequence, length, nonce, ciphertext or tag fails the open and the
// tag-only verify alike.
TEST(SecureChannel, EveryFieldIsAuthenticated) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto sealed = seal("site-1", key_a(), 42, payload, "job-a");
  const Layout l = layout_of("site-1", "job-a", payload.size());
  ASSERT_NO_THROW(verify(sealed, key_a()));
  const struct {
    const char* field;
    std::size_t at;
  } fields[] = {{"sender", l.sender},     {"job", l.job},         {"sequence", l.sequence},
                {"length", l.length},     {"nonce", l.nonce},     {"nonce end", l.payload - 1},
                {"ciphertext", l.payload}, {"ciphertext end", l.tag - 1}, {"tag", l.tag},
                {"tag end", l.tag + 15}};
  for (const auto& f : fields) {
    auto tampered = sealed;
    tampered[f.at] ^= 0x01;
    EXPECT_THROW((void)open(tampered, key_a()), ProtocolError) << f.field;
    EXPECT_THROW(verify(tampered, key_a()), ProtocolError) << f.field;
    EXPECT_THROW((void)open(std::move(tampered), key_a()), ProtocolError) << f.field;
  }
}

// The HMAC-only v1 layout is refused with a typed error: there is no shim.
TEST(SecureChannel, V1FrameIsRejected) {
  core::ByteWriter w;
  w.write_u32(0x46454e56);  // v1 magic
  w.write_string("site-1");
  w.write_string("job");
  w.write_u64(1);
  w.write_u64(2);
  w.write_u8(7);
  w.write_u8(8);
  const std::vector<std::uint8_t> body(w.bytes().begin() + 4, w.bytes().end());
  const core::Digest mac = core::hmac_sha256(key_a(), body);
  w.write_raw(mac.data(), mac.size());
  const std::vector<std::uint8_t> v1 = w.take();
  try {
    (void)open(v1, key_a());
    ADD_FAILURE() << "a v1 frame opened";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos) << e.what();
  }
  EXPECT_THROW(verify(v1, key_a()), ProtocolError);
  EXPECT_THROW(peek_sender(v1), ProtocolError);
  EXPECT_THROW(peek_job(v1), ProtocolError);
}

TEST(SecureChannel, SealEncodedMatchesSealAndChecksTheDeclaredSize) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  const auto write = [&](core::ByteWriter& w) {
    w.write_raw(payload.data(), payload.size());
  };
  // Each seal draws a fresh nonce: the other side is pinned to it.
  const auto encoded = seal_encoded("site-2", key_a(), 5, payload.size(), write, "job");
  EXPECT_EQ(encoded, seal_with_nonce("site-2", key_a(), 5, payload, "job", nonce_in(encoded)));
  const auto sealed = seal("site-2", key_a(), 5, payload, "job");
  EXPECT_EQ(seal_encoded_with_nonce("site-2", key_a(), 5, payload.size(), write, "job",
                                    nonce_in(sealed)),
            sealed);
  // A payload size that disagrees with what the encoder writes would put a
  // wrong length on the wire: refused before anything is MACed.
  EXPECT_THROW((void)seal_encoded("site-2", key_a(), 5, 3, write), Error);
  EXPECT_THROW((void)seal_encoded("site-2", key_a(), 5, 5, write), Error);
}

// A key derived once and the bare secret it came from seal the same bytes
// and open each other's frames; the default key is the empty secret's.
TEST(SecureChannel, ChannelKeyIsItsSecretDerivedOnce) {
  const ChannelKey key(key_a());
  const std::vector<std::uint8_t> payload = {3, 1, 4};
  const auto sealed = seal("site-1", key, 2, payload, "job");
  EXPECT_EQ(seal_with_nonce("site-1", key_a(), 2, payload, "job", nonce_in(sealed)), sealed);
  EXPECT_TRUE(std::ranges::equal(open(sealed, key_a()).payload, payload));
  EXPECT_TRUE(std::ranges::equal(open(seal("site-1", key_a(), 3, payload), key).payload,
                                 payload));
  EXPECT_FALSE(key.unkeyed());
  EXPECT_TRUE(ChannelKey().unkeyed());
  EXPECT_EQ(ChannelKey().digest(), ChannelKey(std::vector<std::uint8_t>{}).digest());
  EXPECT_THROW(open(sealed, ChannelKey()), ProtocolError);
  const auto keys = channel_keys({{"site-1", Credential{"site-1", "tok", key_a()}}});
  EXPECT_EQ(keys.at("site-1").digest(), key.digest());
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

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cf_secure_channel_" + std::to_string(::getpid()) + "_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A two-site job's server over the checkpoint and journal in `dir`, booted
/// as a coordinator restarted there would boot it.
std::unique_ptr<FederatedServer> boot_server(const std::filesystem::path& dir,
                                             const std::map<std::string, Credential>& registry) {
  ServerConfig config;
  config.job_id = "job";
  config.num_rounds = 2;
  config.expected_clients = 2;
  config.min_clients = 2;
  nn::StateDict model;
  model.insert("w", {{2}, {0.0f, 0.0f}});
  auto persistor = std::make_shared<ModelPersistor>((dir / "model.bin").string());
  auto journal = std::make_shared<RoundJournal>((dir / "model.bin.journal").string(),
                                                core::WalSyncPolicy::kEveryRound);
  return std::make_unique<FederatedServer>(config, registry, std::move(model),
                                           std::make_unique<FedAvgAggregator>(false),
                                           persistor, persistor->load(), std::move(journal));
}

/// Registers `site` with `server` under client sequence 1; the sealed reply.
std::vector<std::uint8_t> register_with(FederatedServer& server, const Credential& cred) {
  InProcConnection connection(server.async_dispatcher());
  return connection.call(
      seal(cred.name, cred.secret, 1, pack(RegisterRequest{cred.name, cred.token}), "job"));
}

// A successor coordinator (here: in the same process, booted from copies of
// the live one's durable files) starts its outbound sequences at 1 again,
// and concurrent sealers reuse sequence numbers under one credential. The
// nonces must still never repeat: a repeated (key, nonce) pair would leak
// the XOR of two plaintexts and the Poly1305 key.
TEST(SecureChannel, NoncesNeverRepeatAcrossSealersOrRestarts) {
  static const char* const kSites[] = {"site-1", "site-2"};
  const auto live_dir = scratch_dir("live");
  const auto next_dir = scratch_dir("successor");
  const auto registry = Provisioner("nonce-pool", 5).provision_sites(2);
  std::vector<std::vector<std::uint8_t>> frames;
  {
    const auto live = boot_server(live_dir, registry);
    for (const char* site : kSites) frames.push_back(register_with(*live, registry.at(site)));
    for (const auto& entry : std::filesystem::directory_iterator(live_dir)) {
      std::filesystem::copy_file(entry.path(), next_dir / entry.path().filename());
    }
    const auto successor = boot_server(next_dir, registry);
    for (const char* site : kSites) frames.push_back(register_with(*successor, registry.at(site)));
    // Same credentials, same sequences: only the nonce tells them apart.
    for (std::size_t i = 0; i < std::size(kSites); ++i) {
      const Credential& cred = registry.at(kSites[i]);
      const Envelope from_live = open(frames[i], cred.secret);
      const Envelope from_successor = open(frames[i + std::size(kSites)], cred.secret);
      EXPECT_EQ(from_live.sequence, from_successor.sequence) << kSites[i];
      EXPECT_TRUE(decode_register_ack(from_successor.payload).accepted) << kSites[i];
    }
  }
  std::filesystem::remove_all(live_dir);
  std::filesystem::remove_all(next_dir);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kFrames = 2000;
  std::vector<std::vector<std::vector<std::uint8_t>>> sealed(kThreads);
  std::vector<std::thread> sealers;
  for (int t = 0; t < kThreads; ++t) {
    sealers.emplace_back([&sealed, t] {
      for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
        sealed[t].push_back(seal("site-1", key_a(), seq, {1, 2, 3}, "job"));
      }
    });
  }
  for (std::thread& t : sealers) t.join();
  for (auto& batch : sealed) frames.insert(frames.end(), batch.begin(), batch.end());

  std::set<core::AeadNonce> nonces;
  for (const auto& frame : frames) nonces.insert(nonce_in(frame));
  EXPECT_EQ(nonces.size(), frames.size());
}

// Replies to peers nobody vouched for are sealed under the empty key, which
// no receiver can verify: they must not cost the sealer a sequence counter
// per claimed name, or a peer spraying random names grows server memory
// without bound.
TEST(SecureChannel, UnknownSendersDoNotGrowTheSequencePool) {
  const auto pool = Provisioner("unknown-pool", 5).provision_sites(2);
  JobRunner runner(pool);
  JobSpec spec;
  spec.server.job_id = "job";
  spec.server.expected_clients = 2;
  spec.server.min_clients = 2;
  spec.initial_model.insert("w", {{2}, {0.0f, 0.0f}});
  spec.aggregator = std::make_unique<FedAvgAggregator>(false);
  runner.submit(std::move(spec));
  // The job's server seals from the runner's pool.
  FederatedServer& server = runner.server("job");
  const std::size_t before = server.outbound_sequences().size();
  InProcConnection to_server(server.async_dispatcher());
  InProcConnection to_router(runner.async_router());
  const std::vector<std::uint8_t> empty_key;
  for (int i = 0; i < 10000; ++i) {
    const std::string name = "mallory-" + std::to_string(i);
    const auto frame = seal(name, empty_key, 1, pack(GetTaskRequest{"s", 0}), "job");
    EXPECT_EQ(decode_error(open(to_server.call(frame), empty_key).payload).code,
              ErrorCode::kFatal);
    EXPECT_EQ(decode_error(open(to_router.call(frame), empty_key).payload).code,
              ErrorCode::kRetryable);
  }
  EXPECT_EQ(server.outbound_sequences().size(), before);
  EXPECT_TRUE(runner.abort("job", "test teardown"));
}

}  // namespace
}  // namespace cppflare::flare
