// Robustness fuzzing of every wire-format parser: random bytes, truncations
// and single-bit corruptions must produce a typed error (or a valid parse),
// never a crash, hang, or silent misread of authenticated content.
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "core/logging.h"
#include "core/rng.h"
#include "flare/dxo.h"
#include "flare/messages.h"
#include "flare/secure_channel.h"
#include "flare/site_session.h"
#include "nn/state_dict.h"

namespace cppflare {
namespace {

std::vector<std::uint8_t> random_bytes(core::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

nn::StateDict sample_dict() {
  nn::StateDict d;
  d.insert("layer.w", {{2, 3}, {1, 2, 3, 4, 5, 6}});
  d.insert("layer.b", {{3}, {0.5f, -0.5f, 0.25f}});
  return d;
}

/// Decodes `frame` as whatever message type its tag names.
void decode_any(std::span<const std::uint8_t> frame) {
  switch (flare::peek_type(frame)) {
    case flare::MsgType::kRegister: (void)flare::decode_register(frame); break;
    case flare::MsgType::kRegisterAck: (void)flare::decode_register_ack(frame); break;
    case flare::MsgType::kGetTask: (void)flare::decode_get_task(frame); break;
    case flare::MsgType::kTask: (void)flare::decode_task(frame); break;
    case flare::MsgType::kSubmitUpdate: (void)flare::decode_submit(frame); break;
    case flare::MsgType::kSubmitAck: (void)flare::decode_submit_ack(frame); break;
    case flare::MsgType::kError: (void)flare::decode_error(frame); break;
    case flare::MsgType::kUnmaskRequest:
      (void)flare::decode_unmask_request(frame);
      break;
    case flare::MsgType::kUnmaskResponse:
      (void)flare::decode_unmask_response(frame);
      break;
  }
}

TEST(FuzzStateDict, RandomBuffersNeverCrash) {
  core::Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const auto bytes = random_bytes(rng, static_cast<std::size_t>(
                                             rng.uniform_int(0, 200)));
    core::ByteReader r(bytes);
    try {
      (void)nn::StateDict::deserialize(r);
    } catch (const Error&) {
      // typed failure is the expected outcome
    }
  }
  SUCCEED();
}

TEST(FuzzStateDict, EveryTruncationFailsCleanly) {
  core::ByteWriter w;
  sample_dict().serialize(w);
  const auto& full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    core::ByteReader r(full.data(), len);
    EXPECT_THROW((void)nn::StateDict::deserialize(r), Error) << "len=" << len;
  }
  // The untruncated buffer still parses.
  core::ByteReader ok(full);
  EXPECT_EQ(nn::StateDict::deserialize(ok), sample_dict());
}

TEST(FuzzDxo, RandomBuffersNeverCrash) {
  core::Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const auto bytes = random_bytes(rng, static_cast<std::size_t>(
                                             rng.uniform_int(0, 300)));
    core::ByteReader r(bytes);
    try {
      (void)flare::Dxo::deserialize(r);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(FuzzMessages, RandomFramesNeverCrash) {
  core::Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    // Decoders read views that start anywhere inside a received envelope,
    // so the random frame sits at a random offset of a larger buffer.
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto buffer = random_bytes(
        rng, offset + static_cast<std::size_t>(rng.uniform_int(0, 120)));
    try {
      decode_any(std::span<const std::uint8_t>(buffer).subspan(offset));
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

/// One valid frame of every message type.
std::vector<std::vector<std::uint8_t>> every_message_frame() {
  flare::Dxo dxo(flare::DxoKind::kWeights, sample_dict());
  dxo.set_meta_int(flare::Dxo::kMetaNumSamples, 7);
  return {
      flare::pack(flare::RegisterRequest{"site-1", "tok"}),
      flare::pack(flare::RegisterAck{true, "sess-1", "hi"}),
      flare::pack(flare::GetTaskRequest{"sess-1", 500}),
      flare::pack(flare::TaskMessage{flare::TaskKind::kTrain, 1, 3, dxo}),
      flare::pack(flare::SubmitUpdateRequest{"sess-1", 1, dxo}),
      flare::pack(flare::SubmitAck{false, "stale", flare::RejectReason::kStaleRound}),
      flare::pack(flare::ErrorMessage{"bad", flare::ErrorCode::kRetryable}),
      flare::pack(flare::UnmaskRequest{2, 0, {"site-3"}, dxo}),
      flare::pack(flare::UnmaskResponse{"sess-1", 2, 0, dxo}),
  };
}

// The view an opened envelope hands out is followed in memory by the MAC,
// so a decoder that overran its view would read real bytes instead of
// faulting. Every proper prefix of every frame, viewed in place, must
// therefore be refused: no message has an optional trailing field.
TEST(FuzzMessages, EveryTruncationOfAnOpenedViewFailsCleanly) {
  const std::vector<std::uint8_t> key(32, 0x31);
  for (const auto& frame : every_message_frame()) {
    const auto sealed = flare::seal("site-1", key, 1, frame, "job");
    const flare::Envelope env = flare::open(sealed, key);
    ASSERT_NO_THROW(decode_any(env.payload));
    for (std::size_t len = 0; len < env.payload.size(); ++len) {
      EXPECT_THROW(decode_any(env.payload.first(len)), Error)
          << "tag " << int(frame[0]) << " len " << len;
    }
  }
}

TEST(FuzzEnvelope, EverySingleBitFlipBreaksTheMac) {
  const std::vector<std::uint8_t> key(32, 0x42);
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40, 50};
  const auto sealed = flare::seal("site-1", key, 9, payload);

  core::Rng rng(4);
  int verified_differently = 0;
  // Exhaustive over bytes, one random bit each (full exhaustive over bits
  // would be 8x slower for no extra signal).
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto corrupted = sealed;
    corrupted[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    try {
      (void)flare::open(corrupted, key);
      // A parse that *succeeds* after corruption would be a MAC bypass.
      ++verified_differently;
    } catch (const Error&) {
      // expected: ProtocolError (bad magic, truncation, or MAC failure)
    }
  }
  EXPECT_EQ(verified_differently, 0);
}

TEST(FuzzEnvelope, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> key(32, 0x5a);
  core::Rng rng(7);
  const std::string sender = "site-2";
  const std::string job = "job-a";
  const auto payload = random_bytes(rng, 150);
  const auto sealed = flare::seal(sender, key, 3, payload, job);

  // Every strict prefix, including the empty frame.
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const std::vector<std::uint8_t> prefix(sealed.begin(),
                                           sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)flare::open(prefix, key), Error) << "len=" << len;
  }

  // The u64 payload length sits after magic, sender, job and sequence.
  const std::size_t length_at = 4 + 4 + sender.size() + 4 + job.size() + 8;
  const auto with_length = [&](std::uint64_t n) {
    auto mutated = sealed;
    for (int i = 0; i < 8; ++i) {
      mutated[length_at + i] = static_cast<std::uint8_t>(n >> (8 * i));
    }
    return mutated;
  };
  const auto intact = with_length(payload.size());
  ASSERT_NO_THROW((void)flare::open(intact, key));
  // Every value of every byte of the field, plus lengths that overflow a
  // naive `n + 32` bounds check or land one off either side.
  std::vector<std::uint64_t> lengths = {0, payload.size() - 1, payload.size() + 1,
                                        payload.size() + 32, ~0ull, ~0ull - 31,
                                        ~0ull - 32, 1ull << 63};
  for (int byte = 0; byte < 8; ++byte) {
    for (std::uint64_t v = 0; v < 256; ++v) {
      const std::uint64_t n =
          (payload.size() & ~(0xffull << (8 * byte))) | (v << (8 * byte));
      if (n != payload.size()) lengths.push_back(n);
    }
  }
  for (const std::uint64_t n : lengths) {
    const auto mutated = with_length(n);
    EXPECT_THROW((void)flare::open(mutated, key), Error) << "length=" << n;
  }
}

class FixedLearner : public flare::Learner {
 public:
  flare::Dxo train(const flare::Dxo&, const flare::FLContext&) override {
    return flare::Dxo(flare::DxoKind::kWeights, sample_dict());
  }
  std::string site_name() const override { return "site-1"; }
};

/// A SiteSession fed well-formed server replies until it awaits the
/// reply to `step`'s request.
class SessionAt {
 public:
  SessionAt(const flare::Credential& cred, flare::SiteSession::Step step)
      : cred_(cred), session_(cred, "fuzz-job", 100, std::make_shared<FixedLearner>()) {
    session_.set_unmask_provider(
        [](const std::vector<std::string>&, std::int64_t, const nn::StateDict&) {
          return flare::Dxo(flare::DxoKind::kWeights, sample_dict());
        });
    using Step = flare::SiteSession::Step;
    if (step == Step::kRegister) return;
    (void)answer(flare::pack(flare::RegisterAck{true, "sess-1", ""}));
    const flare::Dxo model(flare::DxoKind::kWeights, sample_dict());
    if (step == Step::kSubmit) {
      (void)answer(flare::pack(flare::TaskMessage{flare::TaskKind::kTrain, 0, 1, model}));
    } else if (step == Step::kUnmask) {
      (void)answer(flare::pack(flare::UnmaskRequest{0, 0, {"site-2"}, model}));
    }
    EXPECT_EQ(session_.step(), step);
  }

  /// Sends the next frame and answers it with `payload`, sealed by the
  /// server under a fresh sequence number.
  flare::SiteSession::Outcome answer(std::span<const std::uint8_t> payload) {
    (void)session_.next_frame();
    return session_.on_reply(flare::seal("server", cred_.secret, ++server_seq_,
                                         {payload.begin(), payload.end()}, "fuzz-job"));
  }

  flare::SiteSession::Step step() const { return session_.step(); }

 private:
  flare::Credential cred_;
  flare::SiteSession session_;
  std::uint64_t server_seq_ = 0;
};

// A correctly MACed envelope only proves who sent it: an authenticated but
// hostile peer can still seal garbage. Decoding the opened view (and every
// truncation of it) must parse or throw a typed error — and so must a site
// awaiting any reply when that garbage arrives as the server's answer: a
// typed error, or a step the protocol defines.
TEST(FuzzEnvelope, VerifiedGarbagePayloadsDecodeOrThrow) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  const std::vector<std::uint8_t> key(32, 0x52);
  const flare::Credential cred{"site-1", "token", key};
  using Step = flare::SiteSession::Step;
  const Step steps[] = {Step::kRegister, Step::kPoll, Step::kSubmit, Step::kUnmask};
  std::vector<std::unique_ptr<SessionAt>> sites;
  for (const Step step : steps) sites.push_back(std::make_unique<SessionAt>(cred, step));
  core::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    auto payload = random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(1, 90)));
    payload[0] = static_cast<std::uint8_t>(rng.uniform_int(1, 9));  // a real tag
    const auto sealed = flare::seal("site-1", key, 1, payload);
    const flare::Envelope env = flare::open(sealed, key);
    for (std::size_t len = 0; len <= env.payload.size(); ++len) {
      try {
        decode_any(env.payload.first(len));
      } catch (const Error&) {
      }
      for (std::size_t i = 0; i < sites.size(); ++i) {
        try {
          const auto outcome = sites[i]->answer(env.payload.first(len));
          EXPECT_TRUE(outcome == flare::SiteSession::Outcome::kAdvanced ||
                      outcome == flare::SiteSession::Outcome::kIdle ||
                      outcome == flare::SiteSession::Outcome::kDone);
          EXPECT_LE(static_cast<int>(sites[i]->step()), static_cast<int>(Step::kDone));
          // The garbage was a valid reply and moved the session on: park a
          // fresh one at the step under test again.
          sites[i] = std::make_unique<SessionAt>(cred, steps[i]);
        } catch (const Error&) {
        }
      }
    }
  }
  core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
}

TEST(FuzzEnvelope, RandomGarbageNeverVerifies) {
  const std::vector<std::uint8_t> key(32, 0x24);
  core::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const auto garbage = random_bytes(rng, static_cast<std::size_t>(
                                               rng.uniform_int(0, 150)));
    EXPECT_THROW((void)flare::open(garbage, key), Error);
  }
}

// Seeded mutational fuzzing of `open` over valid v2 frames: bit flips, byte
// overwrites, inserted and erased runs, truncations, extensions and a
// random length field. A mutant that differs from its seed frame must fail
// with a typed error on every path (copying open, in-place open and the
// tag-only verify); one that happens to equal its seed must open to the
// seed's payload.
TEST(FuzzEnvelope, MutatedV2FramesFailClosed) {
  const std::vector<std::uint8_t> key(32, 0x6b);
  core::Rng rng(8);
  std::vector<std::vector<std::uint8_t>> seeds;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::size_t n : {0, 1, 15, 16, 17, 64, 200, 1000}) {
    payloads.push_back(random_bytes(rng, n));
    seeds.push_back(flare::seal("site-" + std::to_string(n), key, n + 1,
                                payloads.back(), n % 2 == 0 ? "job" : ""));
  }
  constexpr int kExecutions = 100000;
  int opened_unchanged = 0;
  for (int exec = 0; exec < kExecutions; ++exec) {
    const auto which = static_cast<std::size_t>(rng.uniform_int(0, seeds.size() - 1));
    std::vector<std::uint8_t> m = seeds[which];
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < mutations; ++k) {
      const auto at = [&] {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(m.size())));
      };
      switch (rng.uniform_int(0, 5)) {
        case 0:
          if (!m.empty()) m[at() % m.size()] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
          break;
        case 1:
          if (!m.empty()) m[at() % m.size()] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        case 2: {
          const auto bytes = random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(1, 8)));
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(at()), bytes.begin(), bytes.end());
          break;
        }
        case 3: {
          const std::size_t from = at();
          const std::size_t n = std::min<std::size_t>(m.size() - from,
                                                      static_cast<std::size_t>(rng.uniform_int(1, 8)));
          m.erase(m.begin() + static_cast<std::ptrdiff_t>(from),
                  m.begin() + static_cast<std::ptrdiff_t>(from + n));
          break;
        }
        case 4:
          m.resize(at());
          break;
        case 5: {
          // Overwrite the u64 length (it sits 8 bytes before the nonce).
          const std::size_t length_at = m.size() >= 36 ? m.size() - 36 - payloads[which].size() : 0;
          const std::uint64_t n = static_cast<std::uint64_t>(rng.uniform_int(0, 2000)) ^
                                  (rng.uniform_int(0, 1) == 0 ? 0 : ~0ull);
          for (int i = 0; i < 8 && length_at + i < m.size(); ++i) {
            m[length_at + i] = static_cast<std::uint8_t>(n >> (8 * i));
          }
          break;
        }
      }
    }
    if (m == seeds[which]) {
      EXPECT_TRUE(std::ranges::equal(flare::open(m, key).payload, payloads[which]));
      ++opened_unchanged;
      continue;
    }
    switch (exec % 3) {
      case 0: EXPECT_THROW((void)flare::open(m, key), Error) << "exec " << exec; break;
      case 1: EXPECT_THROW((void)flare::open(std::move(m), key), Error) << "exec " << exec; break;
      case 2: EXPECT_THROW(flare::verify(m, key), Error) << "exec " << exec; break;
    }
  }
  EXPECT_LT(opened_unchanged, kExecutions / 100);
}

TEST(FuzzRoundTrip, StateDictSurvivesRandomContents) {
  core::Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    nn::StateDict d;
    const int blobs = static_cast<int>(rng.uniform_int(1, 5));
    for (int b = 0; b < blobs; ++b) {
      const auto n = rng.uniform_int(1, 40);
      nn::ParamBlob blob;
      blob.shape = {n};
      for (std::int64_t i = 0; i < n; ++i) {
        blob.values.push_back(static_cast<float>(rng.normal()));
      }
      std::string blob_name = "p";
      blob_name += std::to_string(b);
      d.insert(blob_name, std::move(blob));
    }
    core::ByteWriter w;
    d.serialize(w);
    core::ByteReader r(w.bytes());
    EXPECT_EQ(nn::StateDict::deserialize(r), d);
  }
}

}  // namespace
}  // namespace cppflare
