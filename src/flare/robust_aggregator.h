// Byzantine-robust aggregation.
//
// FedAvg is a single faulty or malicious clinic away from a corrupted
// global model. These aggregators bound that influence with classic
// coordinate-wise robust statistics (Yin et al., ICML'18):
//
//  * MedianAggregator      — coordinate-wise median of contributions;
//  * TrimmedMeanAggregator — drop the k largest and k smallest values per
//    coordinate, average the rest.
//
// Both are FedAvg's BufferingAggregator with another reduce(): the same
// validation (a non-positive sample claim is refused, as FedAvg does), the
// same revocation, and the same site-order RoundMetrics, whose means stay
// sample-weighted. The reduction itself ignores sample weights (robustness
// and weighting conflict: a malicious client could claim a huge sample
// count). Memory is O(clients * model size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flare/aggregator.h"

namespace cppflare::flare {

/// A coordinate-wise robust rule: reduce() gathers each coordinate's values
/// across the buffered contributions (site-name order) and combines them.
class CoordinateWiseAggregator : public BufferingAggregator {
 protected:
  CoordinateWiseAggregator() : BufferingAggregator(/*weighted=*/true) {}

  nn::StateDict reduce() const final;
  /// Combines one coordinate's values (any order) into the aggregate value.
  virtual float combine(std::vector<float>& values) const = 0;
};

class MedianAggregator : public CoordinateWiseAggregator {
 public:
  std::string name() const override { return "CoordinateMedian"; }

 protected:
  float combine(std::vector<float>& values) const override;
};

class TrimmedMeanAggregator : public CoordinateWiseAggregator {
 public:
  /// Trims `trim` values from each tail per coordinate. Requires
  /// contributions > 2*trim at aggregate time.
  explicit TrimmedMeanAggregator(std::int64_t trim) : trim_(trim) {}
  std::string name() const override {
    return "TrimmedMean(k=" + std::to_string(trim_) + ")";
  }

 protected:
  float combine(std::vector<float>& values) const override;

 private:
  std::int64_t trim_;
};

}  // namespace cppflare::flare
