// Server-side update validation and cross-round site reputation.
//
// PR 3 hardened the transport; this layer hardens the *update path*: a site
// that behaves perfectly at the wire level can still upload a poisoned or
// NaN-laden model (see poison.h for the attack catalogue). Every inbound
// contribution is screened before it may touch the aggregator:
//
//  * schema check       — keys and shapes must be congruent with the global
//                         model, and the payload must carry weights;
//  * finite-value scan  — any NaN/Inf rejects the update outright;
//  * round freshness    — a kMetaRound stamp older than the open round is a
//                         replay (stale-round attack);
//  * sample-count sanity— non-positive or implausibly inflated num_samples
//                         claims (weight-gaming FedAvg) are refused;
//  * norm outlier       — at round close, a robust z-score of each update's
//                         deviation norm against the round's median/MAD
//                         flags scale/sign-flip/noise attacks; flagged
//                         contributions are revoked from the aggregator.
//
// The finite scan and the deviation norm share one pass over the payload
// (flare/fold_kernels.h screen_tensor), so the norm's summation order is
// fixed: element i of a tensor (counted from the tensor's start) adds its
// squared deviation, in double, to lane i mod 8; the lanes carry across
// tensors in map order, and the norm is the square root of
// ((l0 + l1) + l2) + ... + l7. Every build computes the same bits.
//
// The outlier pass runs over the *complete* set of admitted norms rather
// than a running estimate, so verdicts are independent of arrival order and
// defended runs stay bit-for-bit reproducible (the same contract FedAvg's
// buffered reduction upholds).
//
// `UpdateValidator::admit` is the single sanctioned gateway to
// `Aggregator::accept` in server code — lint rule R7 enforces that no other
// src/flare call site feeds the aggregator directly.
//
// `SiteReputation` carries verdicts across rounds: a run of consecutive
// rejections quarantines a site (its uploads are still scored, never
// aggregated); a run of clean scored rounds paroles it back in. Standings
// persist in checkpoint v3 so a restarted server keeps its quarantine.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flare/aggregator.h"
#include "flare/dxo.h"
#include "flare/messages.h"

namespace cppflare::flare {

struct ValidatorConfig {
  /// Master switch; disabled, every update passes straight through to the
  /// aggregator (the undefended baseline used by bench_poison).
  bool enabled = true;
  /// Reject payloads whose keys/shapes differ from the global model.
  bool check_schema = true;
  /// Reject payloads containing NaN or Inf.
  bool check_finite = true;
  /// Reject updates whose kMetaRound stamp disagrees with the open round.
  /// Applies only when the meta is present, so harnesses that never stamp
  /// rounds are unaffected.
  bool check_round_freshness = true;
  /// Reject claimed num_samples above this (0 = no upper bound). A
  /// non-positive claim is always rejected when the meta is present.
  std::int64_t max_sample_count = 0;
  /// Robust z-score threshold for the round-close norm-outlier pass
  /// (0 = off). 6 is a forgiving default: honest inter-site heterogeneity
  /// rarely exceeds 3, scale/sign-flip attacks land in the tens.
  double norm_zscore_threshold = 0.0;
  /// Outlier statistics need a population; below this many admitted
  /// updates the pass is skipped.
  std::int64_t min_updates_for_outlier = 4;
};

/// One screening outcome; `ok()` means the update may be aggregated.
struct Verdict {
  RejectReason reason = RejectReason::kNone;
  std::string detail;
  bool ok() const { return reason == RejectReason::kNone; }
};

class UpdateValidator {
 public:
  explicit UpdateValidator(ValidatorConfig config = {});

  /// Starts a round: remembers the global model (schema + norm reference)
  /// and the open round index, clears the admitted-norm set.
  void reset(const nn::StateDict& global, std::int64_t round);

  /// Screens one contribution and, when it passes, feeds it to the
  /// aggregator. The single sanctioned Aggregator::accept call site in
  /// server code (lint R7).
  Verdict admit(Aggregator& aggregator, const std::string& site, const Dxo& dxo);

  /// Screens without aggregating — quarantined sites are scored this way.
  /// Returns the screening verdict and the update's deviation norm (for
  /// the round-close outlier judgment) via `norm_out`.
  Verdict score(const std::string& site, const Dxo& dxo, double* norm_out) const;

  /// Round-close pass: robust z-score of every admitted norm against the
  /// round's median/MAD. Returns flagged (site, verdict) pairs in
  /// site-name order; the caller revokes them from the aggregator.
  std::vector<std::pair<std::string, Verdict>> flag_outliers() const;

  /// Judges one norm (e.g. a quarantined site's scored upload) against the
  /// round's admitted-norm population. ok() when the pass is off, the
  /// population is too small, or the norm is inside the threshold.
  Verdict judge_norm(double norm) const;

  const ValidatorConfig& config() const { return config_; }

 private:
  Verdict screen(const Dxo& dxo, double* norm_out) const;
  bool round_stats(double* median, double* scale) const;

  ValidatorConfig config_;
  nn::StateDict global_;
  std::int64_t round_ = 0;
  std::map<std::string, double> norms_;  // site -> admitted deviation norm
};

// ---- cross-round reputation ----------------------------------------------

struct ReputationConfig {
  /// Consecutive rejected rounds that quarantine a site (0 = never).
  std::int64_t quarantine_after = 0;
  /// Consecutive clean scored rounds that parole a quarantined site.
  std::int64_t parole_after = 2;
};

/// One site's standing; serialized into checkpoint v3.
struct SiteStanding {
  /// Consecutive rejections (reset by a clean accepted round).
  std::int64_t strikes = 0;
  /// Consecutive clean scored rounds while quarantined.
  std::int64_t clean_streak = 0;
  bool quarantined = false;
  std::int64_t total_rejections = 0;
  std::int64_t times_quarantined = 0;
};

class SiteReputation {
 public:
  explicit SiteReputation(ReputationConfig config = {});

  bool enabled() const { return config_.quarantine_after > 0; }

  /// Records a rejected (or outlier-scored) round for the site. Returns
  /// true when this strike crosses the threshold and quarantines it.
  bool record_rejection(const std::string& site);

  /// Records a clean round. For a quarantined site this grows its parole
  /// streak; returns true when the streak re-admits it (takes effect the
  /// next round — the current round already excluded its upload).
  bool record_clean(const std::string& site);

  bool quarantined(const std::string& site) const;
  std::int64_t quarantined_count() const;
  std::vector<std::string> quarantined_sites() const;
  const std::map<std::string, SiteStanding>& standings() const {
    return standings_;
  }

  /// Restores checkpointed standings (resume path).
  void restore(std::map<std::string, SiteStanding> standings);

 private:
  ReputationConfig config_;
  std::map<std::string, SiteStanding> standings_;
};

}  // namespace cppflare::flare
