#include "nn/state_dict.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "core/error.h"

namespace cppflare::nn {
namespace {

StateDict make_dict(float base) {
  StateDict d;
  d.insert("layer.weight", {{2, 2}, {base, base + 1, base + 2, base + 3}});
  d.insert("layer.bias", {{2}, {base * 10, base * 10 + 1}});
  return d;
}

TEST(StateDict, InsertAndLookup) {
  StateDict d = make_dict(1.0f);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.contains("layer.weight"));
  EXPECT_FALSE(d.contains("nope"));
  EXPECT_EQ(d.at("layer.bias").shape, (std::vector<std::int64_t>{2}));
  EXPECT_THROW(d.at("nope"), Error);
}

TEST(StateDict, DuplicateInsertThrows) {
  StateDict d = make_dict(1.0f);
  EXPECT_THROW(d.insert("layer.weight", {{1}, {0.0f}}), Error);
}

TEST(StateDict, TotalNumel) {
  EXPECT_EQ(make_dict(0.0f).total_numel(), 6);
}

TEST(StateDict, Congruence) {
  StateDict a = make_dict(1.0f), b = make_dict(9.0f);
  EXPECT_TRUE(a.congruent_with(b));  // shapes match, values differ
  StateDict c;
  c.insert("layer.weight", {{4}, {0, 0, 0, 0}});  // different shape
  c.insert("layer.bias", {{2}, {0, 0}});
  EXPECT_FALSE(a.congruent_with(c));
  StateDict d;
  d.insert("other", {{2}, {0, 0}});
  d.insert("layer.bias", {{2}, {0, 0}});
  EXPECT_FALSE(a.congruent_with(d));
}

TEST(StateDict, AxpyComputesWeightedSum) {
  StateDict a = make_dict(0.0f);
  StateDict b = make_dict(1.0f);
  a.axpy(2.0f, b);
  EXPECT_FLOAT_EQ(a.at("layer.weight").values[0], 0.0f + 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(a.at("layer.weight").values[3], 3.0f + 2.0f * 4.0f);
  EXPECT_FLOAT_EQ(a.at("layer.bias").values[1], 1.0f + 2.0f * 11.0f);
}

TEST(StateDict, AxpyRejectsIncongruent) {
  StateDict a = make_dict(0.0f);
  StateDict b;
  b.insert("x", {{1}, {1.0f}});
  EXPECT_THROW(a.axpy(1.0f, b), Error);
}

TEST(StateDict, ScaleMultipliesAll) {
  StateDict a = make_dict(1.0f);
  a.scale(0.5f);
  EXPECT_FLOAT_EQ(a.at("layer.weight").values[1], 1.0f);
  EXPECT_FLOAT_EQ(a.at("layer.bias").values[0], 5.0f);
}

TEST(StateDict, ZerosLikeMatchesStructure) {
  StateDict a = make_dict(3.0f);
  StateDict z = a.zeros_like();
  EXPECT_TRUE(a.congruent_with(z));
  for (const auto& [k, blob] : z.entries()) {
    for (float v : blob.values) EXPECT_EQ(v, 0.0f);
  }
}

TEST(StateDict, SerializeRoundTrip) {
  StateDict a = make_dict(2.5f);
  core::ByteWriter w;
  a.serialize(w);
  core::ByteReader r(w.bytes());
  StateDict b = StateDict::deserialize(r);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateDict, DeserializeRejectsBadMagic) {
  core::ByteWriter w;
  w.write_u32(0x12345678);
  core::ByteReader r(w.bytes());
  EXPECT_THROW(StateDict::deserialize(r), SerializationError);
}

TEST(StateDict, DeserializeRejectsShapeValueMismatch) {
  core::ByteWriter w;
  w.write_u32(0x53444331);  // magic
  w.write_u32(1);
  w.write_string("p");
  w.write_i64_vector({3});         // claims 3 elements
  w.write_f32_vector({1.0f, 2.0f});  // provides 2
  core::ByteReader r(w.bytes());
  EXPECT_THROW(StateDict::deserialize(r), SerializationError);
}

TEST(StateDict, EmptyDictRoundTrip) {
  StateDict a;
  core::ByteWriter w;
  a.serialize(w);
  core::ByteReader r(w.bytes());
  EXPECT_EQ(StateDict::deserialize(r).size(), 0u);
}

// A state dict inside a received frame starts wherever the headers before
// it end. Deserializing at every byte offset must reproduce every float bit
// (NaN payloads, -0, denormals), and encoded_size must be what serialize
// writes.
TEST(StateDict, RoundTripKeepsFloatBitsAtOddOffsets) {
  const std::vector<std::uint32_t> bits = {0x7fc0beefu, 0xffa00001u, 0x80000000u,
                                           0x00000001u, 0x807fffffu, 0x00400000u};
  std::vector<float> values(bits.size());
  std::memcpy(values.data(), bits.data(), bits.size() * sizeof(float));
  StateDict a;
  a.insert("odd", ParamBlob{{2, 3}, values});
  a.insert("scalar", ParamBlob{{1}, {-0.0f}});
  core::ByteWriter w;
  a.serialize(w);
  EXPECT_EQ(w.size(), a.encoded_size());
  for (std::size_t offset : {1u, 2u, 3u, 5u, 7u}) {
    std::vector<std::uint8_t> framed(offset, 0x11);
    framed.insert(framed.end(), w.bytes().begin(), w.bytes().end());
    core::ByteReader r(std::span<const std::uint8_t>(framed).subspan(offset));
    const StateDict b = StateDict::deserialize(r);
    EXPECT_TRUE(r.exhausted());
    const std::vector<float>& got = b.at("odd").values;
    ASSERT_EQ(got.size(), bits.size());
    EXPECT_EQ(std::memcmp(got.data(), bits.data(), bits.size() * sizeof(float)), 0)
        << "offset " << offset;
    EXPECT_TRUE(std::signbit(b.at("scalar").values[0])) << "offset " << offset;
  }
}

}  // namespace
}  // namespace cppflare::nn
