// Named flat views of model parameters.
//
// `StateDict` is the interchange format of the whole system: modules export
// and import their parameters through it, the federated DXO carries it
// between client and server, the aggregator averages over it, and the
// persistor writes it to disk. It is deliberately a plain map of
// name -> float buffer (+shape) with no tensor/autograd dependency, so the
// server side never needs the NN stack to aggregate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/bytes.h"

namespace cppflare::nn {

struct ParamBlob {
  std::vector<std::int64_t> shape;
  std::vector<float> values;

  std::int64_t numel() const { return static_cast<std::int64_t>(values.size()); }
  bool operator==(const ParamBlob& other) const = default;
};

class StateDict {
 public:
  using Map = std::map<std::string, ParamBlob>;

  void insert(const std::string& name, ParamBlob blob);
  bool contains(const std::string& name) const { return entries_.count(name) != 0; }
  const ParamBlob& at(const std::string& name) const;
  ParamBlob& at(const std::string& name);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Map& entries() const { return entries_; }
  Map& entries() { return entries_; }

  /// Total scalar parameter count across all blobs.
  std::int64_t total_numel() const;

  /// True iff both dicts have identical key sets and per-key shapes
  /// (values may differ). Aggregation requires congruent dicts.
  bool congruent_with(const StateDict& other) const;

  // ---- arithmetic used by FedAvg ---------------------------------------
  /// *this += scale * other. Dicts must be congruent.
  void axpy(float scale, const StateDict& other);
  /// *this *= scale.
  void scale(float factor);
  /// Same keys/shapes as *this, all values zero.
  StateDict zeros_like() const;

  // ---- wire format -------------------------------------------------------
  void serialize(core::ByteWriter& writer) const;
  /// Exact byte count serialize() appends.
  std::size_t encoded_size() const;
  static StateDict deserialize(core::ByteReader& reader);

  bool operator==(const StateDict& other) const = default;

 private:
  Map entries_;
};

}  // namespace cppflare::nn
