// Poly1305 (RFC 8439 §2.5) per kernel and the ChaCha20-Poly1305 AEAD
// (§2.8) against the RFC's vectors, an independent implementation's output
// and each other.
#include "core/poly1305.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/aead.h"
#include "core/error.h"
#include "core/poly1305_kernel.h"
#include "core/rng.h"
#include "core/sha256.h"

namespace cppflare::core {

// Names the kernel in gtest's parameter output (found by ADL).
void PrintTo(Poly1305Kernel kernel, std::ostream* os) {
  *os << poly1305_kernel_name(kernel);
}

namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

template <class Bytes>
std::string hex_of(const Bytes& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

Poly1305::Key key_of(const std::vector<std::uint8_t>& bytes) {
  Poly1305::Key key{};
  std::copy(bytes.begin(), bytes.end(), key.begin());
  return key;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

Poly1305::Tag mac_with(Poly1305Kernel kernel, const Poly1305::Key& key,
                       const std::uint8_t* data, std::size_t len) {
  Poly1305 poly = poly1305_with_kernel(kernel, key);
  poly.update(data, len);
  return poly.finish();
}

class Poly1305KernelTest : public ::testing::TestWithParam<Poly1305Kernel> {
 protected:
  void SetUp() override {
    if (!poly1305_kernel_supported(GetParam())) {
      GTEST_SKIP() << poly1305_kernel_name(GetParam()) << " is not supported on this CPU";
    }
  }
};

// RFC 8439 §2.5.2.
TEST_P(Poly1305KernelTest, Rfc8439Vector) {
  const Poly1305::Key key = key_of(
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"));
  const std::string msg = "Cryptographic Forum Research Group";
  EXPECT_EQ(hex_of(mac_with(GetParam(), key,
                            reinterpret_cast<const std::uint8_t*>(msg.data()),
                            msg.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

// Inputs that drive the accumulator to its carry edges: all-0xff blocks
// under r with every unclamped bit set, and RFC 8439 Appendix A.3's
// reduction cases. Tags from the `cryptography` package (48.0.0, OpenSSL):
//   Poly1305.generate_tag(key, (pattern * n)[:length]).hex()
TEST_P(Poly1305KernelTest, CarryEdgeVectors) {
  const std::string kR = "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
  const std::string kFill = "ff" + std::string(30, 'f');
  const std::string kA37 = "ffffffffffffffffffffffffffffffff"
                           "f0ffffffffffffffffffffffffffffff"
                           "11000000000000000000000000000000";
  const std::string kA38 = "ffffffffffffffffffffffffffffffff"
                           "fbfefefefefefefefefefefefefefefe"
                           "01010101010101010101010101010101";
  const struct {
    std::string key, pattern;
    std::size_t length;
    const char* tag;
  } cases[] = {
      {kR, "ff", 16, "fbffff17faffff17faffff17faffff17"},
      {kR, "ff", 64, "900fe32bc15fa8d7bca8efe4c7e37eb1"},
      {kR, "ff", 277, "2dd7fb1929bef52b89ae9a2020475ac8"},
      {kR, "ff", 4096, "2827279b4c1d3e6b93286238199e131a"},
      {"02" + std::string(62, '0'), kFill, 16, "03000000000000000000000000000000"},
      {"02" + std::string(30, '0') + kFill, "02" + std::string(30, '0'), 16,
       "03000000000000000000000000000000"},
      {"01" + std::string(62, '0'), kA37, 48, "05000000000000000000000000000000"},
      {"01" + std::string(62, '0'), kA38, 384, "0a000000000000000000000000000000"},
  };
  for (const auto& c : cases) {
    const std::vector<std::uint8_t> pattern = from_hex(c.pattern);
    std::vector<std::uint8_t> msg(c.length);
    for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = pattern[i % pattern.size()];
    EXPECT_EQ(hex_of(mac_with(GetParam(), key_of(from_hex(c.key)), msg.data(), msg.size())),
              c.tag)
        << c.key << " x " << c.length;
  }
}

// Every tier against the scalar one at every length 0-4096, from offsets
// that misalign the message every way a 16- or 64-byte load can be, under a
// random key, an all-0xff key and the all-0xff message.
TEST_P(Poly1305KernelTest, MatchesScalarAtEveryLengthAndOffset) {
  Rng rng(11);
  const std::vector<std::uint8_t> random = random_bytes(rng, 4096 + 33);
  const std::vector<std::uint8_t> ones(4096 + 33, 0xff);
  Poly1305::Key random_key;
  for (auto& b : random_key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  Poly1305::Key ones_key;
  ones_key.fill(0xff);
  for (const auto* data : {&random, &ones}) {
    for (const Poly1305::Key& key : {random_key, ones_key}) {
      for (const std::size_t offset : {0, 1, 7, 15, 16, 33}) {
        for (std::size_t len = 0; len <= 4096; ++len) {
          const std::uint8_t* p = data->data() + offset;
          ASSERT_EQ(mac_with(GetParam(), key, p, len),
                    mac_with(Poly1305Kernel::kScalar, key, p, len))
              << "offset " << offset << " len " << len;
        }
      }
    }
  }
}

// Feeding the message in pieces of every shape gives the one-shot tag (the
// vector tier converts its lanes back to the scalar state between calls).
TEST_P(Poly1305KernelTest, IncrementalUpdatesMatchOneShot) {
  Rng rng(12);
  const std::vector<std::uint8_t> msg = random_bytes(rng, 5000);
  Poly1305::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const Poly1305::Tag whole = mac_with(GetParam(), key, msg.data(), msg.size());
  for (int trial = 0; trial < 200; ++trial) {
    Poly1305 poly = poly1305_with_kernel(GetParam(), key);
    std::size_t at = 0;
    while (at < msg.size()) {
      const auto n = std::min(msg.size() - at,
                              static_cast<std::size_t>(rng.uniform_int(0, 700)));
      poly.update(msg.data() + at, n);
      at += n;
    }
    ASSERT_EQ(poly.finish(), whole) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Poly1305KernelTest,
                         ::testing::ValuesIn(kAllPoly1305Kernels),
                         [](const ::testing::TestParamInfo<Poly1305Kernel>& info) {
                           return std::string(poly1305_kernel_name(info.param));
                         });

TEST(Poly1305, ActiveKernelIsSupported) {
  EXPECT_TRUE(poly1305_kernel_supported(poly1305_active_kernel()));
}

TEST(Poly1305, TagsEqualComparesEveryByte) {
  Poly1305::Tag a{}, b{};
  EXPECT_TRUE(tags_equal(a, b));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b = a;
    b[i] ^= 0x80;
    EXPECT_FALSE(tags_equal(a, b)) << i;
  }
}

Digest digest_of(const std::vector<std::uint8_t>& bytes) {
  Digest d{};
  std::copy(bytes.begin(), bytes.end(), d.begin());
  return d;
}

AeadNonce nonce_of(const std::vector<std::uint8_t>& bytes) {
  AeadNonce n{};
  std::copy(bytes.begin(), bytes.end(), n.begin());
  return n;
}

// RFC 8439 §2.8.2.
TEST(Aead, Rfc8439Vector) {
  std::vector<std::uint8_t> key_bytes;
  for (int i = 0x80; i < 0xa0; ++i) key_bytes.push_back(static_cast<std::uint8_t>(i));
  const Digest key = digest_of(key_bytes);
  const AeadNonce nonce = nonce_of(from_hex("070000004041424344454647"));
  const std::vector<std::uint8_t> aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const std::string text =
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(text.begin(), text.end());
  const AeadTag tag = aead_seal(key, nonce, aad, data);
  EXPECT_EQ(hex_of(data),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(hex_of(tag), "1ae10b594f09e26a7e902ecbd0600691");
  std::vector<std::uint8_t> back(data.size());
  ASSERT_TRUE(aead_open(key, nonce, aad, data, tag, back.data()));
  EXPECT_EQ(std::string(back.begin(), back.end()), text);
}

// Vectors generated offline with the `cryptography` package (48.0.0), whose
// ChaCha20Poly1305 is OpenSSL's. Lengths straddle the 16-byte pads, the
// 64-byte keystream blocks and the 8 KiB chunks. The generating snippet:
//
//   key = bytes((5 * i + 1) & 0xff for i in range(32))
//   nonce = bytes((0xa0 + i) & 0xff for i in range(12))
//   aad = bytes((3 * i) & 0xff for i in range(aad_len))
//   pt = bytes((31 * i + 7) & 0xff for i in range(n))
//   out = ChaCha20Poly1305(key).encrypt(nonce, pt, aad)
//   print(aad_len, n, hashlib.sha256(out[:-16]).hexdigest(), out[-16:].hex())
TEST(Aead, MatchesReferenceImplementation) {
  const struct {
    std::size_t aad_len, n;
    const char* ciphertext_sha256;
    const char* tag;
  } cases[] = {
      {0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "fb476dd9e8baabddeae359db08f3145a"},
      {1, 1, "3f39d5c348e5b79d06e842c114e6cc571583bbf44e4b0ebfda1a01ec05745d43", "3b822a8d0a5dbda7381ae44c99a0d491"},
      {13, 15, "bea1f6b2ea447bf9c4dd4c047024c1f8ac284d873e65f8790ceac0a6c9b3f7f2", "1f0616755e76cf5c6b05bbd212c06d12"},
      {16, 16, "81f62fb8ad7e37810f35b71a0fd6a792b0398c1a9bc0f43e8aff6f55b7cfc3a9", "85836005e062979bf0d7ceb9d0e1d87a"},
      {33, 17, "32340da035c01101c7b59baf00ec875e8cc15682f76a27f45fb8c44b6be00e40", "f93e00fa0c736b68e5591bca46e5a577"},
      {12, 64, "513025cd865e4388d7d5ede47cd2fcec2e267257bf4c8a1d8ec112cabe4b94c1", "2505fee32c9842ee72e3dfd62e2d8603"},
      {12, 255, "986453d6079cdc73e4cd97e0ee7778638d592e83b7f5151b12890e94c20c7b23", "2475c70ea221fd469f91941eb0c89510"},
      {40, 8191, "6f92d097dab7cbee5c8cbb10605fd98d43aeb6cf64c3057799b80c4f27bf8766", "df8c8839429b3229eca4b9d4fc5cd672"},
      {40, 8192, "c66bdbb8416abef6ad1d246a3e2326d8d20fbf3e91601daefc38265643e9251b", "044da418fc2ae3b0eb0f5aa29e9eb921"},
      {40, 8193, "30041b61733fed7f823ffdd6e81f740bec4f1309b71ce70e60c05a471667531d", "6564f83a92fe1ea4abb317a848653db4"},
      {7, 20000, "3fe2e866461d2999e2b1d6b1dd2c4272e49aba3293605f45414c85ab89c986c0", "b2883cc0bb189e2cf8a1ed493cc6bea5"},
  };
  Digest key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(5 * i + 1);
  AeadNonce nonce;
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<std::uint8_t>(0xa0 + i);
  for (const auto& c : cases) {
    std::vector<std::uint8_t> aad(c.aad_len), plain(c.n);
    for (std::size_t i = 0; i < aad.size(); ++i) aad[i] = static_cast<std::uint8_t>(3 * i);
    for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<std::uint8_t>(31 * i + 7);
    std::vector<std::uint8_t> data = plain;
    const AeadTag tag = aead_seal(key, nonce, aad, data);
    EXPECT_EQ(to_hex(Sha256::hash(data.data(), data.size())), c.ciphertext_sha256)
        << c.aad_len << "/" << c.n;
    EXPECT_EQ(hex_of(tag), c.tag) << c.aad_len << "/" << c.n;
    EXPECT_TRUE(aead_verify(key, nonce, aad, data, tag));
    // Open both into a second buffer and in place.
    std::vector<std::uint8_t> out(data.size());
    ASSERT_TRUE(aead_open(key, nonce, aad, data, tag, out.data()));
    EXPECT_EQ(out, plain);
    ASSERT_TRUE(aead_open(key, nonce, aad, data, tag, data.data()));
    EXPECT_EQ(data, plain);
  }
}

TEST(Aead, TamperedInputFailsAndWipesTheOutput) {
  Rng rng(13);
  const Digest key = digest_of(random_bytes(rng, 32));
  const AeadNonce nonce = nonce_of(random_bytes(rng, 12));
  const std::vector<std::uint8_t> aad = random_bytes(rng, 21);
  const std::vector<std::uint8_t> plain = random_bytes(rng, 9000);
  std::vector<std::uint8_t> data = plain;
  const AeadTag tag = aead_seal(key, nonce, aad, data);
  const auto expect_rejected = [&](const std::vector<std::uint8_t>& a,
                                   const std::vector<std::uint8_t>& c, const AeadTag& t,
                                   const AeadNonce& n) {
    EXPECT_FALSE(aead_verify(key, n, a, c, t));
    std::vector<std::uint8_t> out(c.size(), 0x5a);
    EXPECT_FALSE(aead_open(key, n, a, c, t, out.data()));
    EXPECT_EQ(out, std::vector<std::uint8_t>(c.size(), 0));
  };
  auto bad_aad = aad;
  bad_aad[20] ^= 1;
  expect_rejected(bad_aad, data, tag, nonce);
  auto bad_data = data;
  bad_data[8999] ^= 0x40;
  expect_rejected(aad, bad_data, tag, nonce);
  auto bad_tag = tag;
  bad_tag[0] ^= 1;
  expect_rejected(aad, data, bad_tag, nonce);
  auto bad_nonce = nonce;
  bad_nonce[11] ^= 1;
  expect_rejected(aad, data, tag, bad_nonce);
}

TEST(Aead, FreshNoncesAreDistinct) {
  std::vector<AeadNonce> nonces;
  for (int i = 0; i < 4096; ++i) nonces.push_back(fresh_nonce());
  std::sort(nonces.begin(), nonces.end());
  EXPECT_EQ(std::adjacent_find(nonces.begin(), nonces.end()), nonces.end());
}

}  // namespace
}  // namespace cppflare::core
