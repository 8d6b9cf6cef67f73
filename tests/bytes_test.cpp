#include "core/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/error.h"

namespace cppflare::core {
namespace {

TEST(ByteWriter, ScalarRoundTrip) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u16(0x1234);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_i64(-42);
  w.write_f32(3.25f);
  w.write_f64(-1.5);
  w.write_bool(true);
  w.write_bool(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xab);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1.5);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.write_u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(ByteWriter, StringRoundTrip) {
  ByteWriter w;
  w.write_string("hello");
  w.write_string("");
  w.write_string(std::string("\0nul\0", 5));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), std::string("\0nul\0", 5));
}

TEST(ByteWriter, VectorRoundTrip) {
  ByteWriter w;
  w.write_f32_vector({1.0f, -2.5f, 3.75f});
  w.write_f32_vector({});
  w.write_i64_vector({-1, 0, 1LL << 40});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, -2.5f, 3.75f}));
  EXPECT_TRUE(r.read_f32_vector().empty());
  EXPECT_EQ(r.read_i64_vector(), (std::vector<std::int64_t>{-1, 0, 1LL << 40}));
}

TEST(ByteWriter, RawAndReadRaw) {
  ByteWriter w;
  const std::uint8_t raw[] = {9, 8, 7};
  w.write_raw(raw, 3);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_raw(3), (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteWriter w;
  w.write_u16(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_u32(), SerializationError);
  // After a failed read, position is unchanged and a valid read works.
  EXPECT_EQ(r.read_u16(), 7);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter w;
  w.write_u32(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_string(), SerializationError);
}

TEST(ByteReader, TruncatedVectorThrows) {
  ByteWriter w;
  w.write_u64(10);  // claims 10 floats
  w.write_f32(1.0f);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_f32_vector(), SerializationError);
}

TEST(ByteReader, AbsurdVectorLengthRejected) {
  ByteWriter w;
  w.write_u64(~0ULL);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_f32_vector(), SerializationError);
  ByteReader r2(w.bytes());
  EXPECT_THROW(r2.read_i64_vector(), SerializationError);
}

TEST(ByteReader, HostileI64CountFailsBeforeAllocating) {
  ByteWriter w;
  w.write_u64(1ULL << 31);  // 16 GiB worth of i64s, none provided
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_i64_vector(), SerializationError);
}

TEST(ByteReader, PositionTracking) {
  ByteWriter w;
  w.write_u32(1);
  w.write_u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.remaining(), 8u);
  r.read_u32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.exhausted());
  r.read_u32();
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriter, TakeMovesBuffer) {
  ByteWriter w;
  w.write_u8(1);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteRoundTrip, SpecialFloats) {
  ByteWriter w;
  w.write_f32(std::numeric_limits<float>::infinity());
  w.write_f32(-0.0f);
  w.write_f64(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.read_f32()));
  EXPECT_EQ(r.read_f32(), 0.0f);
  EXPECT_TRUE(std::isnan(r.read_f64()));
}

/// Floats whose bit patterns a value-based copy could alter: a quiet NaN
/// with payload bits, a signalling NaN, -0, the smallest denormal, the
/// largest denormal and the infinities.
std::vector<std::uint32_t> tricky_f32_bits() {
  return {0x7fc12345u, 0xffc00001u, 0x7f800001u, 0x80000000u, 0x00000001u,
          0x007fffffu, 0x7f800000u, 0xff800000u, 0x3f800000u};
}

std::vector<float> floats_of(const std::vector<std::uint32_t>& bits) {
  std::vector<float> v(bits.size());
  std::memcpy(v.data(), bits.data(), bits.size() * sizeof(float));
  return v;
}

// read_f32_vector builds its vector straight from the input bytes, which
// may sit at any offset in a received frame: every bit must survive at
// every alignment.
TEST(ByteRoundTrip, F32VectorBitsSurviveEveryByteOffset) {
  const std::vector<std::uint32_t> bits = tricky_f32_bits();
  ByteWriter w;
  w.write_f32_vector(floats_of(bits));
  const std::vector<std::uint8_t> encoded = w.take();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<std::uint8_t> framed(offset, 0xee);
    framed.insert(framed.end(), encoded.begin(), encoded.end());
    ByteReader r(std::span<const std::uint8_t>(framed).subspan(offset));
    const std::vector<float> back = r.read_f32_vector();
    ASSERT_EQ(back.size(), bits.size()) << "offset " << offset;
    std::vector<std::uint32_t> back_bits(back.size());
    std::memcpy(back_bits.data(), back.data(), back.size() * sizeof(float));
    EXPECT_EQ(back_bits, bits) << "offset " << offset;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(ByteWriter, EncodedSizesMatchWrites) {
  const std::string s = "layer.0.weight";
  const std::vector<float> f(13, 1.0f);
  const std::vector<std::int64_t> i = {4, 5, 6};
  ByteWriter w;
  w.write_string(s);
  EXPECT_EQ(w.size(), encoded_size(s));
  w.write_f32_vector(f);
  EXPECT_EQ(w.size(), encoded_size(s) + encoded_size(f));
  w.write_i64_vector(i);
  EXPECT_EQ(w.size(), encoded_size(s) + encoded_size(f) + encoded_size(i));
}

}  // namespace
}  // namespace cppflare::core
