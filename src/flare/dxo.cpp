#include "flare/dxo.h"

#include <sstream>

#include "core/error.h"

namespace cppflare::flare {

const char* dxo_kind_name(DxoKind kind) {
  switch (kind) {
    case DxoKind::kWeights: return "WEIGHTS";
    case DxoKind::kWeightDiff: return "WEIGHT_DIFF";
    case DxoKind::kMetrics: return "METRICS";
  }
  return "?";
}

void Dxo::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void Dxo::set_meta_int(const std::string& key, std::int64_t value) {
  meta_[key] = std::to_string(value);
}

void Dxo::set_meta_double(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  meta_[key] = os.str();
}

bool Dxo::has_meta(const std::string& key) const { return meta_.count(key) != 0; }

std::string Dxo::meta(const std::string& key, const std::string& fallback) const {
  auto it = meta_.find(key);
  return it == meta_.end() ? fallback : it->second;
}

std::int64_t Dxo::meta_int(const std::string& key, std::int64_t fallback) const {
  auto it = meta_.find(key);
  return it == meta_.end() ? fallback : std::stoll(it->second);
}

double Dxo::meta_double(const std::string& key, double fallback) const {
  auto it = meta_.find(key);
  return it == meta_.end() ? fallback : std::stod(it->second);
}

void Dxo::serialize(core::ByteWriter& writer) const {
  writer.write_u8(static_cast<std::uint8_t>(kind_));
  writer.write_u32(static_cast<std::uint32_t>(meta_.size()));
  for (const auto& [k, v] : meta_) {
    writer.write_string(k);
    writer.write_string(v);
  }
  data_.serialize(writer);
}

std::size_t Dxo::encoded_size() const {
  std::size_t n = 1 + 4;  // kind + meta count
  for (const auto& [k, v] : meta_) n += core::encoded_size(k) + core::encoded_size(v);
  return n + data_.encoded_size();
}

Dxo Dxo::deserialize(core::ByteReader& reader) {
  Dxo dxo;
  const std::uint8_t kind = reader.read_u8();
  if (kind > static_cast<std::uint8_t>(DxoKind::kMetrics)) {
    throw SerializationError("Dxo: bad kind byte");
  }
  dxo.kind_ = static_cast<DxoKind>(kind);
  const std::uint32_t meta_count = reader.read_u32();
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    const std::string k = reader.read_string();
    dxo.meta_[k] = reader.read_string();
  }
  dxo.data_ = nn::StateDict::deserialize(reader);
  return dxo;
}

}  // namespace cppflare::flare
