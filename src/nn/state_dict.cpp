#include "nn/state_dict.h"

#include "core/error.h"

namespace cppflare::nn {

void StateDict::insert(const std::string& name, ParamBlob blob) {
  if (entries_.count(name) != 0) {
    throw Error("StateDict: duplicate parameter name '" + name + "'");
  }
  entries_.emplace(name, std::move(blob));
}

const ParamBlob& StateDict::at(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) throw Error("StateDict: missing parameter '" + name + "'");
  return it->second;
}

ParamBlob& StateDict::at(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) throw Error("StateDict: missing parameter '" + name + "'");
  return it->second;
}

std::int64_t StateDict::total_numel() const {
  std::int64_t n = 0;
  for (const auto& [name, blob] : entries_) n += blob.numel();
  return n;
}

bool StateDict::congruent_with(const StateDict& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  auto it = entries_.begin();
  auto jt = other.entries_.begin();
  for (; it != entries_.end(); ++it, ++jt) {
    if (it->first != jt->first || it->second.shape != jt->second.shape) return false;
  }
  return true;
}

void StateDict::axpy(float scale, const StateDict& other) {
  if (!congruent_with(other)) throw Error("StateDict::axpy: incongruent dicts");
  auto it = entries_.begin();
  auto jt = other.entries_.begin();
  for (; it != entries_.end(); ++it, ++jt) {
    auto& dst = it->second.values;
    const auto& src = jt->second.values;
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += scale * src[i];
  }
}

void StateDict::scale(float factor) {
  for (auto& [name, blob] : entries_) {
    for (float& v : blob.values) v *= factor;
  }
}

StateDict StateDict::zeros_like() const {
  StateDict out;
  for (const auto& [name, blob] : entries_) {
    ParamBlob z;
    z.shape = blob.shape;
    z.values.assign(blob.values.size(), 0.0f);
    out.insert(name, std::move(z));
  }
  return out;
}

namespace {
constexpr std::uint32_t kStateDictMagic = 0x53444331;  // "SDC1"
}

void StateDict::serialize(core::ByteWriter& writer) const {
  writer.write_u32(kStateDictMagic);
  writer.write_u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [name, blob] : entries_) {
    writer.write_string(name);
    writer.write_i64_vector(blob.shape);
    writer.write_f32_vector(blob.values);
  }
}

std::size_t StateDict::encoded_size() const {
  std::size_t n = 4 + 4;  // magic + entry count
  for (const auto& [name, blob] : entries_) {
    n += core::encoded_size(name) + core::encoded_size(blob.shape) +
         core::encoded_size(blob.values);
  }
  return n;
}

StateDict StateDict::deserialize(core::ByteReader& reader) {
  if (reader.read_u32() != kStateDictMagic) {
    throw SerializationError("StateDict: bad magic");
  }
  const std::uint32_t count = reader.read_u32();
  StateDict dict;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = reader.read_string();
    ParamBlob blob;
    blob.shape = reader.read_i64_vector();
    blob.values = reader.read_f32_vector();
    std::int64_t expect = 1;
    for (std::int64_t d : blob.shape) expect *= d;
    if (expect != blob.numel()) {
      throw SerializationError("StateDict: shape/value mismatch for '" + name +
                                     "'");
    }
    dict.insert(name, std::move(blob));
  }
  return dict;
}

}  // namespace cppflare::nn
