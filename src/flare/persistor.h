// Model persistence (NVFlare's "persist model on server" step).
//
// Saves the global StateDict plus round/job metadata to a single binary
// file, atomically (write to a temp file, then rename), so a crashed run
// never leaves a torn checkpoint behind. Format v3 ("CPK3") carries the
// per-round metrics history plus the site-reputation standings (resume
// keeps quarantines — see validator.h) and ends in a SHA-256 footer, so a
// truncated or bit-rotted file fails loudly instead of loading garbage.
// It is the only format: any other magic is a SerializationError.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flare/aggregator.h"
#include "flare/validator.h"
#include "nn/state_dict.h"

namespace cppflare::flare {

struct Checkpoint {
  std::string job_id;
  /// Index of the last *completed* round; a resumed server starts at
  /// round + 1.
  std::int64_t round = 0;
  nn::StateDict model;
  /// Metrics for rounds 0..round (aggregation state for mid-run resume).
  std::vector<RoundMetrics> history;
  /// Site-reputation standings at the end of `round` (empty for runs
  /// without quarantine).
  std::map<std::string, SiteStanding> reputation;
};

class ModelPersistor {
 public:
  explicit ModelPersistor(std::string path) : path_(std::move(path)) {}

  /// Atomically writes the checkpoint in the CPK3 format.
  void save(const Checkpoint& checkpoint) const;

  /// Loads the checkpoint; std::nullopt if the file does not exist. Throws
  /// SerializationError on a foreign magic, a failed footer or truncation.
  std::optional<Checkpoint> load() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace cppflare::flare
