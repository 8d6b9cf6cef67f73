// Binary serialization primitives.
//
// All wire formats in cppflare (DXO payloads, model state dicts, transport
// frames) are built on these two types. Encoding is explicit little-endian
// so payloads are portable across hosts, matching what a real federated
// deployment needs when server and clients run on different machines.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"

namespace cppflare::core {

/// Exact encoded sizes of the length-prefixed writes below, for callers
/// that reserve a buffer once before encoding into it.
inline std::size_t encoded_size(const std::string& s) { return 4 + s.size(); }
inline std::size_t encoded_size(const std::vector<float>& v) {
  return 8 + v.size() * sizeof(float);
}
inline std::size_t encoded_size(const std::vector<std::int64_t>& v) {
  return 8 + v.size() * sizeof(std::int64_t);
}

/// Append-only binary encoder.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f32(float v);
  void write_f64(double v);
  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  /// Length-prefixed (u32) UTF-8 string.
  void write_string(const std::string& s);

  /// Length-prefixed (u64) float payload; the hot path for model weights.
  /// Appends the bytes once (no zero-filled staging).
  void write_f32_vector(const std::vector<float>& v);
  void write_i64_vector(const std::vector<std::int64_t>& v);

  /// Raw bytes, no length prefix.
  void write_raw(const std::uint8_t* data, std::size_t n);

  /// Pre-sizes the buffer for `n` total bytes (one allocation when exact).
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed byte range. Throws
/// `SerializationError` on truncated input; never reads past the end. The
/// range may start at any byte offset: multi-byte values are copied out,
/// never dereferenced in place.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  float read_f32();
  double read_f64();
  bool read_bool() { return read_u8() != 0; }
  std::string read_string();
  /// Builds the vector straight from the input bytes: each float is written
  /// once, with no zero-initialized staging.
  std::vector<float> read_f32_vector();
  std::vector<std::int64_t> read_i64_vector();
  /// Copies out `n` raw bytes.
  std::vector<std::uint8_t> read_raw(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw SerializationError("truncated input: need " + std::to_string(n) +
                               " bytes, have " + std::to_string(size_ - pos_));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace cppflare::core
