// Robustness fuzzing of every wire-format parser: random bytes, truncations
// and single-bit corruptions must produce a typed error (or a valid parse),
// never a crash, hang, or silent misread of authenticated content.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "flare/dxo.h"
#include "flare/messages.h"
#include "flare/secure_channel.h"
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
    const auto frame = random_bytes(rng, static_cast<std::size_t>(
                                             rng.uniform_int(0, 120)));
    try {
      switch (flare::peek_type(frame)) {
        case flare::MsgType::kRegister: (void)flare::decode_register(frame); break;
        case flare::MsgType::kRegisterAck:
          (void)flare::decode_register_ack(frame);
          break;
        case flare::MsgType::kGetTask: (void)flare::decode_get_task(frame); break;
        case flare::MsgType::kTask: (void)flare::decode_task(frame); break;
        case flare::MsgType::kSubmitUpdate: (void)flare::decode_submit(frame); break;
        case flare::MsgType::kSubmitAck: (void)flare::decode_submit_ack(frame); break;
        case flare::MsgType::kError: (void)flare::decode_error(frame); break;
      }
    } catch (const Error&) {
    }
  }
  SUCCEED();
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
  ASSERT_NO_THROW((void)flare::open(with_length(payload.size()), key));
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
    EXPECT_THROW((void)flare::open(with_length(n), key), Error) << "length=" << n;
  }
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
