#include "flare/robust_aggregator.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace cppflare::flare {

nn::StateDict CoordinateWiseAggregator::reduce() const {
  nn::StateDict out = global_;  // structure template; a diff adds to it
  const bool diff = *round_kind_ == DxoKind::kWeightDiff;
  std::vector<float> column(pending_.size());
  for (auto& [name, blob] : out.entries()) {
    // Hoist the per-blob lookups out of the per-coordinate loop.
    std::vector<const std::vector<float>*> sources;
    sources.reserve(pending_.size());
    for (const auto& [site, p] : pending_) {
      sources.push_back(&p.dxo.data().at(name).values);
    }
    for (std::size_t i = 0; i < blob.values.size(); ++i) {
      for (std::size_t c = 0; c < sources.size(); ++c) {
        column[c] = (*sources[c])[i];
      }
      const float combined = combine(column);
      blob.values[i] = diff ? blob.values[i] + combined : combined;
    }
  }
  return out;
}

namespace {
/// operator< on floats is not a strict weak ordering once NaN appears, and
/// feeding it to sort/nth_element is undefined behavior — exactly the input
/// a poisoning site produces. This total order ranks NaN above every finite
/// value, so NaN coordinates land in the upper tail where the median skips
/// them and the trimmed mean cuts them.
bool nan_last_less(float a, float b) {
  if (std::isnan(b)) return !std::isnan(a);
  if (std::isnan(a)) return false;
  return a < b;
}
}  // namespace

float MedianAggregator::combine(std::vector<float>& values) const {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end(),
                   nan_last_less);
  if (values.size() % 2 == 1) return values[mid];
  const float hi = values[mid];
  const float lo = *std::max_element(values.begin(), values.begin() + mid,
                                     nan_last_less);
  return 0.5f * (lo + hi);
}

float TrimmedMeanAggregator::combine(std::vector<float>& values) const {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n <= 2 * trim_) {
    throw Error("TrimmedMean: need more than " + std::to_string(2 * trim_) +
                " contributions, got " + std::to_string(n));
  }
  std::sort(values.begin(), values.end(), nan_last_less);
  double acc = 0.0;
  for (std::int64_t i = trim_; i < n - trim_; ++i) acc += values[i];
  return static_cast<float>(acc / static_cast<double>(n - 2 * trim_));
}

}  // namespace cppflare::flare
