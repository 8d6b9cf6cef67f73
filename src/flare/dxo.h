// DXO — Data Exchange Object.
//
// The typed payload that crosses the federation boundary, mirroring
// NVFlare's DXO: a kind discriminator, a model payload (StateDict), and a
// small string/number meta map (sample counts, metrics, round info).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/bytes.h"
#include "nn/state_dict.h"

namespace cppflare::flare {

enum class DxoKind : std::uint8_t {
  kWeights = 0,     // full model weights
  kWeightDiff = 1,  // delta vs the round's global model
  kMetrics = 2,     // no weights, meta only
};

const char* dxo_kind_name(DxoKind kind);

class Dxo {
 public:
  Dxo() = default;
  Dxo(DxoKind kind, nn::StateDict data) : kind_(kind), data_(std::move(data)) {}

  DxoKind kind() const { return kind_; }
  void set_kind(DxoKind kind) { kind_ = kind; }

  const nn::StateDict& data() const { return data_; }
  nn::StateDict& data() { return data_; }

  // ---- meta ------------------------------------------------------------
  void set_meta(const std::string& key, const std::string& value);
  void set_meta_int(const std::string& key, std::int64_t value);
  void set_meta_double(const std::string& key, double value);
  bool has_meta(const std::string& key) const;
  std::string meta(const std::string& key, const std::string& fallback = "") const;
  std::int64_t meta_int(const std::string& key, std::int64_t fallback = 0) const;
  double meta_double(const std::string& key, double fallback = 0.0) const;
  const std::map<std::string, std::string>& meta_entries() const { return meta_; }

  // ---- wire --------------------------------------------------------------
  void serialize(core::ByteWriter& writer) const;
  /// Exact byte count serialize() appends.
  std::size_t encoded_size() const;
  static Dxo deserialize(core::ByteReader& reader);

  /// Well-known meta keys.
  static constexpr const char* kMetaNumSamples = "num_samples";
  static constexpr const char* kMetaTrainLoss = "train_loss";
  static constexpr const char* kMetaValidAcc = "valid_acc";
  static constexpr const char* kMetaValidLoss = "valid_loss";
  static constexpr const char* kMetaRound = "round";

 private:
  DxoKind kind_ = DxoKind::kMetrics;
  nn::StateDict data_;
  std::map<std::string, std::string> meta_;
};

}  // namespace cppflare::flare
