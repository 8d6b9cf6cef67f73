#include "core/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.h"
#include "core/sha256_kernel.h"

namespace cppflare::core {

// Names the kernel in gtest's parameter output (found by ADL).
void PrintTo(Sha256Kernel kernel, std::ostream* os) { *os << sha256_kernel_name(kernel); }

namespace {

struct HashVector {
  std::string message;
  const char* hex;
};

// FIPS 180-4 / NIST test vectors (one-, two- and four-block messages).
const std::vector<HashVector>& fips_vectors() {
  static const std::vector<HashVector> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjk"
       "lmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
  };
  return vectors;
}

struct MacVector {
  std::vector<std::uint8_t> key;
  std::string message;
  const char* hex;
};

std::vector<std::uint8_t> key_range(std::uint8_t first, std::uint8_t last) {
  std::vector<std::uint8_t> key;
  for (int b = first; b <= last; ++b) key.push_back(static_cast<std::uint8_t>(b));
  return key;
}

// RFC 4231 HMAC-SHA256 test cases 1-4, 6 and 7 (6 and 7 hash the 131-byte
// key first).
const std::vector<MacVector>& rfc4231_vectors() {
  static const std::vector<MacVector> vectors = {
      {std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key_range(0x01, 0x19), std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<std::uint8_t>(131, 0xaa),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  return vectors;
}

const std::uint8_t* bytes_of(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

Digest hash_with(Sha256Kernel kernel, const std::uint8_t* data, std::size_t len) {
  Sha256 h = sha256_with_kernel(kernel);
  h.update(data, len);
  return h.finish();
}

// The public entry points run the kernel picked for this CPU.
TEST(Sha256, PublicHashMatchesFipsVectors) {
  for (const HashVector& v : fips_vectors()) {
    EXPECT_EQ(to_hex(Sha256::hash(v.message)), v.hex) << v.message;
  }
}

TEST(Sha256, ActiveKernelIsShaNiWhenSupported) {
  const Sha256Kernel expected = sha256_kernel_supported(Sha256Kernel::kShaNi)
                                    ? Sha256Kernel::kShaNi
                                    : Sha256Kernel::kScalar;
  EXPECT_EQ(sha256_active_kernel(), expected)
      << "active kernel: " << sha256_kernel_name(sha256_active_kernel());
  EXPECT_TRUE(sha256_kernel_supported(Sha256Kernel::kScalar));
}

// Every case below runs once per compression kernel. The scalar kernel is
// the reference; the SHA-NI leg is skipped on CPUs without the extension.
class Sha256KernelTest : public ::testing::TestWithParam<Sha256Kernel> {
 protected:
  void SetUp() override {
    if (!sha256_kernel_supported(GetParam())) {
      GTEST_SKIP() << "CPU lacks SHA-NI (CPUID leaf 7 EBX bit 29); only the "
                      "scalar kernel is exercised here";
    }
  }
};

TEST_P(Sha256KernelTest, FipsVectors) {
  for (const HashVector& v : fips_vectors()) {
    EXPECT_EQ(to_hex(hash_with(GetParam(), bytes_of(v.message), v.message.size())),
              v.hex)
        << v.message;
  }
  Sha256 h = sha256_with_kernel(GetParam());
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, Rfc4231Vectors) {
  for (const MacVector& v : rfc4231_vectors()) {
    EXPECT_EQ(to_hex(hmac_sha256_with_kernel(GetParam(), v.key, bytes_of(v.message),
                                             v.message.size())),
              v.hex)
        << v.message;
  }
}

TEST_P(Sha256KernelTest, MatchesScalarAtEveryLengthWithRandomSplits) {
  const std::vector<std::uint8_t> data = random_bytes(4096, 7);
  Rng rng(8);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const Digest reference = hash_with(Sha256Kernel::kScalar, data.data(), len);
    // Up to three random cut points, so updates start and end mid-block and
    // the partial-block buffer is both filled and drained.
    std::vector<std::size_t> cuts = {0, len};
    const auto extra = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < extra; ++i) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(len))));
    }
    std::sort(cuts.begin(), cuts.end());
    Sha256 h = sha256_with_kernel(GetParam());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      h.update(data.data() + cuts[i], cuts[i + 1] - cuts[i]);
    }
    ASSERT_EQ(to_hex(h.finish()), to_hex(reference)) << "len=" << len;
  }
}

TEST_P(Sha256KernelTest, MatchesScalarOnFiveMiBFrame) {
  const std::vector<std::uint8_t> frame = random_bytes(5 << 20, 9);
  const Digest reference = hash_with(Sha256Kernel::kScalar, frame.data(), frame.size());
  EXPECT_EQ(to_hex(hash_with(GetParam(), frame.data(), frame.size())),
            to_hex(reference));
  // The same frame fed in odd-sized pieces.
  Sha256 h = sha256_with_kernel(GetParam());
  for (std::size_t at = 0; at < frame.size(); at += 100003) {
    h.update(frame.data() + at, std::min<std::size_t>(100003, frame.size() - at));
  }
  EXPECT_EQ(to_hex(h.finish()), to_hex(reference));
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::Values(Sha256Kernel::kScalar,
                                           Sha256Kernel::kShaNi),
                         [](const ::testing::TestParamInfo<Sha256Kernel>& info) {
                           return std::string(info.param == Sha256Kernel::kShaNi
                                                  ? "ShaNi"
                                                  : "Scalar");
                         });

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string(1, c));
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must all hash
  // without corruption; verify self-consistency of incremental paths.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 split;
    split.update(msg.substr(0, len / 2));
    split.update(msg.substr(len / 2));
    EXPECT_EQ(to_hex(split.finish()), to_hex(Sha256::hash(msg))) << len;
  }
}

TEST(HmacSha256, PublicMacMatchesRfc4231Vectors) {
  for (const MacVector& v : rfc4231_vectors()) {
    EXPECT_EQ(to_hex(hmac_sha256(v.key, bytes_of(v.message), v.message.size())),
              v.hex)
        << v.message;
  }
}

TEST(HmacSha256, DifferentKeysDifferentMacs) {
  const std::vector<std::uint8_t> k1(32, 1), k2(32, 2);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  EXPECT_NE(to_hex(hmac_sha256(k1, msg)), to_hex(hmac_sha256(k2, msg)));
}

TEST(DigestCompare, EqualAndUnequal) {
  Digest a{}, b{};
  EXPECT_TRUE(digests_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digests_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digests_equal(a, b));
}

TEST(ToHex, Formats) {
  Digest d{};
  d[0] = 0x0f;
  d[1] = 0xa0;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 4), "0fa0");
}

}  // namespace
}  // namespace cppflare::core
