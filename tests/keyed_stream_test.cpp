#include "core/keyed_stream.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.h"
#include "core/keyed_stream_kernel.h"

namespace cppflare::core {

// Names the kernel in gtest's parameter output (found by ADL).
void PrintTo(KeyedStreamKernel kernel, std::ostream* os) {
  *os << keyed_stream_kernel_name(kernel);
}

namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Digest rfc_key() {
  Digest key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

KeyedStream::Nonce nonce_of(const std::string& hex) {
  const std::vector<std::uint8_t> bytes = from_hex(hex);
  KeyedStream::Nonce nonce{};
  std::copy(bytes.begin(), bytes.end(), nonce.begin());
  return nonce;
}

/// `nbytes` keystream bytes from byte 4 * first_word (words are little-endian).
std::vector<std::uint8_t> keystream_bytes(const KeyedStream& stream,
                                          std::uint64_t first_word,
                                          std::size_t nbytes) {
  std::vector<std::uint32_t> words((nbytes + 3) / 4);
  stream.read(first_word, words.size(), words.data());
  std::vector<std::uint8_t> bytes;
  for (const std::uint32_t w : words) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  bytes.resize(nbytes);
  return bytes;
}

class KeyedStreamKernelTest : public ::testing::TestWithParam<KeyedStreamKernel> {
 protected:
  void SetUp() override {
    if (!keyed_stream_kernel_supported(GetParam())) {
      GTEST_SKIP() << keyed_stream_kernel_name(GetParam())
                   << " is not supported on this CPU";
    }
  }
};

// RFC 8439 §2.3.2: the block function at counter 1, i.e. words 16..31.
TEST_P(KeyedStreamKernelTest, Rfc8439BlockFunctionVector) {
  const KeyedStream stream = keyed_stream_with_kernel(
      GetParam(), rfc_key(), nonce_of("000000090000004a00000000"));
  EXPECT_EQ(keystream_bytes(stream, 16, 64),
            from_hex("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
                     "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"));
}

// RFC 8439 §2.4.2: encrypting the "sunscreen" plaintext from counter 1.
TEST_P(KeyedStreamKernelTest, Rfc8439EncryptionVector) {
  const KeyedStream stream = keyed_stream_with_kernel(
      GetParam(), rfc_key(), nonce_of("000000000000004a00000000"));
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> cipher = keystream_bytes(stream, 16, plaintext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    cipher[i] ^= static_cast<std::uint8_t>(plaintext[i]);
  }
  EXPECT_EQ(cipher,
            from_hex("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
                     "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
                     "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
                     "5af90bbf74a35be6b40b8eedf2785e42874d"));
}

// Every kernel against scalar at every length 0..4096, from offsets that
// are not multiples of 16 (so head and tail blocks are partial) as well
// as from block starts.
TEST_P(KeyedStreamKernelTest, MatchesScalarAtEveryLengthAndOffset) {
  Digest key = rfc_key();
  key[0] = 0xa5;
  const KeyedStream::Nonce nonce = nonce_of("0102030405060708090a0b0c");
  const KeyedStream scalar =
      keyed_stream_with_kernel(KeyedStreamKernel::kScalar, key, nonce);
  const KeyedStream kernel = keyed_stream_with_kernel(GetParam(), key, nonce);
  constexpr std::size_t kMax = 4096;
  for (const std::uint64_t offset : {0ull, 1ull, 7ull, 15ull, 16ull, 33ull, 250ull}) {
    std::vector<std::uint32_t> want(kMax), got(kMax + 1, 0xdeadbeef);
    scalar.read(offset, kMax, want.data());
    for (std::size_t len = 0; len <= kMax; ++len) {
      kernel.read(offset, len, got.data());
      ASSERT_TRUE(std::equal(want.begin(), want.begin() + static_cast<long>(len),
                             got.begin()))
          << "offset " << offset << " len " << len;
    }
    // Nothing past `len` words is written.
    std::fill(got.begin(), got.end(), 0xdeadbeef);
    kernel.read(offset, 100, got.data());
    EXPECT_EQ(got[100], 0xdeadbeefu);
  }
}

// A range read equals the same slice of one long read, for slices that
// start and end anywhere.
TEST_P(KeyedStreamKernelTest, RangeReadEqualsSliceOfFullStream) {
  const KeyedStream stream = keyed_stream_with_kernel(
      GetParam(), rfc_key(), nonce_of("00000000000000000000002a"));
  constexpr std::size_t kTotal = 5000;
  std::vector<std::uint32_t> full(kTotal);
  stream.read(0, kTotal, full.data());
  const std::pair<std::size_t, std::size_t> slices[] = {
      {0, 1}, {3, 13}, {16, 16}, {17, 300}, {1023, 1025}, {2048, 1}, {4001, 999}};
  for (const auto& [first, count] : slices) {
    std::vector<std::uint32_t> part(count);
    stream.read(first, count, part.data());
    EXPECT_TRUE(std::equal(part.begin(), part.end(), full.begin() + static_cast<long>(first)))
        << first << "+" << count;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KeyedStreamKernelTest,
    ::testing::ValuesIn(kAllKeyedStreamKernels),
    [](const ::testing::TestParamInfo<KeyedStreamKernel>& info) {
      return std::string(keyed_stream_kernel_name(info.param));
    });

TEST(KeyedStreamTest, ActiveKernelIsSupported) {
  EXPECT_TRUE(keyed_stream_kernel_supported(keyed_stream_active_kernel()));
  EXPECT_TRUE(keyed_stream_kernel_supported(KeyedStreamKernel::kScalar));
}

TEST(KeyedStreamTest, KeyAndNonceSeparateStreams) {
  const KeyedStream::Nonce nonce{};
  Digest other = rfc_key();
  other[31] ^= 1;
  KeyedStream::Nonce other_nonce{};
  other_nonce[11] = 1;
  std::uint32_t a[16], b[16], c[16];
  KeyedStream(rfc_key(), nonce).read(0, 16, a);
  KeyedStream(other, nonce).read(0, 16, b);
  KeyedStream(rfc_key(), other_nonce).read(0, 16, c);
  EXPECT_FALSE(std::equal(a, a + 16, b));
  EXPECT_FALSE(std::equal(a, a + 16, c));
}

TEST(KeyedStreamTest, ReadsPastTheBlockCounterThrow) {
  const KeyedStream stream(rfc_key(), KeyedStream::Nonce{});
  constexpr std::uint64_t kWords = std::uint64_t{1} << 36;
  std::uint32_t out[16];
  stream.read(kWords - 16, 16, out);  // the last block is addressable
  EXPECT_THROW(stream.read(kWords - 15, 16, out), Error);
  EXPECT_THROW(stream.read(kWords, 1, out), Error);
  stream.read(kWords, 0, out);  // an empty read touches nothing
}

}  // namespace
}  // namespace cppflare::core
