#include "flare/validator.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "flare/fold_kernels.h"

#define CPPFLARE_LOG_COMPONENT "UpdateValidator"

namespace cppflare::flare {

namespace {

/// Consistency constant turning a MAD into a normal-comparable sigma.
constexpr double kMadToSigma = 1.4826;

double median_of(std::vector<double> values) {
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double hi = values[mid];
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}
}  // namespace

UpdateValidator::UpdateValidator(ValidatorConfig config)
    : config_(config) {}

void UpdateValidator::reset(const nn::StateDict& global, std::int64_t round) {
  global_ = global;
  round_ = round;
  norms_.clear();
}

Verdict UpdateValidator::screen(const Dxo& dxo, double* norm_out) const {
  if (norm_out != nullptr) *norm_out = 0.0;
  if (!config_.enabled) return Verdict{};
  const bool model = dxo.kind() != DxoKind::kMetrics;
  const bool diff = dxo.kind() == DxoKind::kWeightDiff;
  const bool congruent = model && dxo.data().congruent_with(global_);
  if (config_.check_schema) {
    if (!model) {
      return Verdict{RejectReason::kSchemaMismatch,
                     "metrics-only payload cannot update the model"};
    }
    if (!congruent) {
      return Verdict{RejectReason::kSchemaMismatch,
                     "keys/shapes incongruent with the global model"};
    }
  }
  // The schema check may be off while the norm pass is on; a kWeights
  // payload that is not congruent has no deviation from the global model.
  //
  // The statistic is the distance *from the global model* (for kWeights)
  // or the magnitude of the delta (kWeightDiff), not the raw weight norm:
  // a sign-flipped model has exactly the honest norm but roughly twice the
  // honest deviation, so only the deviation catches it.
  const bool want_norm = norm_out != nullptr && (diff || congruent);
  ScreenSums sums;
  if (config_.check_finite || want_norm) {
    // One pass per tensor gives the finite flag and the sum of squares;
    // congruent maps walk in step, so the global tensor needs no lookup.
    const bool against_global = want_norm && !diff;
    auto global_it = global_.entries().begin();
    for (const auto& [name, blob] : dxo.data().entries()) {
      const float* base =
          against_global ? (global_it++)->second.values.data() : nullptr;
      screen_tensor(blob.values.data(), base, blob.values.size(), sums);
      if (config_.check_finite && !sums.finite) break;
    }
  }
  if (config_.check_finite && !sums.finite) {
    return Verdict{RejectReason::kNonFinite, "payload contains NaN or Inf"};
  }
  if (config_.check_round_freshness && dxo.has_meta(Dxo::kMetaRound)) {
    const std::int64_t claimed = dxo.meta_int(Dxo::kMetaRound, round_);
    if (claimed != round_) {
      return Verdict{RejectReason::kStaleRound,
                     "update stamped for round " + std::to_string(claimed) +
                         ", round " + std::to_string(round_) + " is open"};
    }
  }
  if (dxo.has_meta(Dxo::kMetaNumSamples)) {
    const std::int64_t samples = dxo.meta_int(Dxo::kMetaNumSamples, 0);
    if (samples <= 0) {
      return Verdict{RejectReason::kBadSampleCount,
                     "non-positive num_samples claim"};
    }
    if (config_.max_sample_count > 0 && samples > config_.max_sample_count) {
      return Verdict{RejectReason::kBadSampleCount,
                     "claimed " + std::to_string(samples) +
                         " samples, cap is " +
                         std::to_string(config_.max_sample_count)};
    }
  }
  if (want_norm) *norm_out = std::sqrt(sums.sum_of_squares());
  return Verdict{};
}

Verdict UpdateValidator::admit(Aggregator& aggregator, const std::string& site,
                               const Dxo& dxo) {
  double norm = 0.0;
  const Verdict verdict = screen(dxo, &norm);
  if (!verdict.ok()) {
    LOG(warn).msg("Update from " + site + " rejected (" +
                  reject_reason_name(verdict.reason) + "): " + verdict.detail);
    return verdict;
  }
  if (!aggregator.accept(site, dxo)) {
    return Verdict{RejectReason::kAggregatorRefused,
                   "aggregator refused the contribution"};
  }
  norms_[site] = norm;
  return Verdict{};
}

Verdict UpdateValidator::score(const std::string& site, const Dxo& dxo,
                               double* norm_out) const {
  const Verdict verdict = screen(dxo, norm_out);
  if (!verdict.ok()) {
    LOG(warn).msg("Scored update from quarantined " + site + " fails (" +
                  reject_reason_name(verdict.reason) + "): " + verdict.detail);
  }
  return verdict;
}

bool UpdateValidator::round_stats(double* median, double* scale) const {
  if (!config_.enabled || config_.norm_zscore_threshold <= 0.0) return false;
  if (static_cast<std::int64_t>(norms_.size()) <
      config_.min_updates_for_outlier) {
    return false;
  }
  std::vector<double> values;
  values.reserve(norms_.size());
  for (const auto& [site, norm] : norms_) values.push_back(norm);
  *median = median_of(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::abs(v - *median));
  // Floor the scale: honest sites with near-identical norms would otherwise
  // drive the MAD toward zero and turn float jitter into "outliers".
  *scale = std::max(kMadToSigma * median_of(deviations),
                    1e-9 + 1e-6 * std::abs(*median));
  return true;
}

std::vector<std::pair<std::string, Verdict>> UpdateValidator::flag_outliers()
    const {
  std::vector<std::pair<std::string, Verdict>> flagged;
  double median = 0.0;
  double scale = 0.0;
  if (!round_stats(&median, &scale)) return flagged;
  for (const auto& [site, norm] : norms_) {
    const double z = std::abs(norm - median) / scale;
    if (z > config_.norm_zscore_threshold) {
      flagged.emplace_back(
          site, Verdict{RejectReason::kNormOutlier,
                        "deviation norm " + std::to_string(norm) +
                            " is " + std::to_string(z) +
                            " robust sigmas from the round median " +
                            std::to_string(median)});
    }
  }
  return flagged;
}

Verdict UpdateValidator::judge_norm(double norm) const {
  double median = 0.0;
  double scale = 0.0;
  if (!round_stats(&median, &scale)) return Verdict{};
  if (!std::isfinite(norm)) {
    return Verdict{RejectReason::kNonFinite, "non-finite deviation norm"};
  }
  const double z = std::abs(norm - median) / scale;
  if (z > config_.norm_zscore_threshold) {
    return Verdict{RejectReason::kNormOutlier,
                   "deviation norm " + std::to_string(norm) + " is " +
                       std::to_string(z) + " robust sigmas from the median"};
  }
  return Verdict{};
}

// ---- SiteReputation ------------------------------------------------------

SiteReputation::SiteReputation(ReputationConfig config) : config_(config) {}

bool SiteReputation::record_rejection(const std::string& site) {
  SiteStanding& st = standings_[site];
  st.strikes += 1;
  st.total_rejections += 1;
  st.clean_streak = 0;
  if (enabled() && !st.quarantined && st.strikes >= config_.quarantine_after) {
    st.quarantined = true;
    st.times_quarantined += 1;
    return true;
  }
  return false;
}

bool SiteReputation::record_clean(const std::string& site) {
  SiteStanding& st = standings_[site];
  if (st.quarantined) {
    st.clean_streak += 1;
    if (config_.parole_after > 0 && st.clean_streak >= config_.parole_after) {
      st.quarantined = false;
      st.strikes = 0;
      st.clean_streak = 0;
      return true;
    }
    return false;
  }
  st.strikes = 0;
  return false;
}

bool SiteReputation::quarantined(const std::string& site) const {
  const auto it = standings_.find(site);
  return it != standings_.end() && it->second.quarantined;
}

std::int64_t SiteReputation::quarantined_count() const {
  std::int64_t n = 0;
  for (const auto& [site, st] : standings_) {
    if (st.quarantined) n += 1;
  }
  return n;
}

std::vector<std::string> SiteReputation::quarantined_sites() const {
  std::vector<std::string> sites;
  for (const auto& [site, st] : standings_) {
    if (st.quarantined) sites.push_back(site);
  }
  return sites;
}

void SiteReputation::restore(std::map<std::string, SiteStanding> standings) {
  standings_ = std::move(standings);
}

}  // namespace cppflare::flare
