#include "core/bytes.h"

#include <iterator>

namespace cppflare::core {

namespace {

// Sanity bound on decoded container lengths: rejects absurd sizes coming
// from corrupt or hostile payloads before we try to allocate them.
constexpr std::uint64_t kMaxContainerElems = 1ull << 32;

/// Random-access iterator yielding the little-endian floats stored at an
/// arbitrary (possibly unaligned) byte address. Handing a pair of these to
/// std::vector's range constructor sizes the vector once and constructs
/// every element straight from the input bytes.
class F32Cursor {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = float;
  using difference_type = std::ptrdiff_t;
  using pointer = const float*;
  using reference = float;

  explicit F32Cursor(const std::uint8_t* p) : p_(p) {}
  float operator*() const {
    float v;
    std::memcpy(&v, p_, sizeof(v));
    return v;
  }
  float operator[](difference_type i) const { return *(*this + i); }
  F32Cursor& operator++() { p_ += sizeof(float); return *this; }
  F32Cursor operator++(int) { F32Cursor t = *this; ++*this; return t; }
  F32Cursor& operator--() { p_ -= sizeof(float); return *this; }
  F32Cursor operator--(int) { F32Cursor t = *this; --*this; return t; }
  F32Cursor& operator+=(difference_type n) {
    p_ += n * static_cast<difference_type>(sizeof(float));
    return *this;
  }
  F32Cursor& operator-=(difference_type n) { return *this += -n; }
  friend F32Cursor operator+(F32Cursor c, difference_type n) { return c += n; }
  friend F32Cursor operator+(difference_type n, F32Cursor c) { return c += n; }
  friend F32Cursor operator-(F32Cursor c, difference_type n) { return c -= n; }
  friend difference_type operator-(F32Cursor a, F32Cursor b) {
    return (a.p_ - b.p_) / static_cast<difference_type>(sizeof(float));
  }
  friend bool operator==(F32Cursor a, F32Cursor b) { return a.p_ == b.p_; }
  friend auto operator<=>(F32Cursor a, F32Cursor b) { return a.p_ <=> b.p_; }

 private:
  const std::uint8_t* p_;
};

}  // namespace

void ByteWriter::write_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(bits);
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  if (v.empty()) return;  // v.data() may be null
  // Little-endian hosts append the floats' bytes as they are in memory.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
  buf_.insert(buf_.end(), bytes, bytes + v.size() * sizeof(float));
}

void ByteWriter::write_i64_vector(const std::vector<std::int64_t>& v) {
  write_u64(v.size());
  for (std::int64_t x : v) write_i64(x);
}

void ByteWriter::write_raw(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

float ByteReader::read_f32() {
  std::uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::read_f64() {
  std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::read_string() {
  std::uint32_t n = read_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> ByteReader::read_f32_vector() {
  std::uint64_t n = read_u64();
  if (n > kMaxContainerElems) throw SerializationError("f32 vector too large");
  require(n * sizeof(float));
  const std::uint8_t* at = data_ + pos_;
  std::vector<float> v(F32Cursor(at), F32Cursor(at + n * sizeof(float)));
  pos_ += n * sizeof(float);
  return v;
}

std::vector<std::int64_t> ByteReader::read_i64_vector() {
  std::uint64_t n = read_u64();
  if (n > kMaxContainerElems) throw SerializationError("i64 vector too large");
  require(n * sizeof(std::int64_t));  // before reserving for a hostile count
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_i64());
  return v;
}

std::vector<std::uint8_t> ByteReader::read_raw(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

}  // namespace cppflare::core
