// DXO filters — the privacy/robustness pipeline applied to contributions.
//
// NVFlare passes every task result through a configurable filter chain
// before it reaches the aggregator; this module reproduces the three
// standard ones the paper's privacy claims rest on: Gaussian perturbation
// (differential-privacy style noise), update-norm clipping, and variable
// exclusion. Filters mutate the DXO in place and are composable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sha256.h"
#include "flare/dxo.h"
#include "flare/fl_context.h"

namespace cppflare::flare {

class Filter {
 public:
  virtual ~Filter() = default;
  virtual void process(Dxo& dxo, const FLContext& ctx) = 0;
  virtual std::string name() const = 0;
};

/// Applies all filters in order.
class FilterChain {
 public:
  void add(std::shared_ptr<Filter> filter) { filters_.push_back(std::move(filter)); }
  void process(Dxo& dxo, const FLContext& ctx) const;
  std::size_t size() const { return filters_.size(); }

 private:
  std::vector<std::shared_ptr<Filter>> filters_;
};

/// Adds i.i.d. N(0, sigma^2) noise to every weight value.
///
/// The noise is a pure function of (seed, round, call index within that
/// round): the ChaCha20 keystream (core::KeyedStream) under key
/// HMAC-SHA256(le64(seed), "dp-noise") and nonce le64(round) ‖ le32(call)
/// feeds a float Box–Muller (flare/privacy_kernels.h), element i of the
/// flattened update taking keystream word i. A second call in the same round
/// draws fresh noise; a filter rebuilt after a restart reproduces round r's
/// first release, so a re-trained round re-releases the same noise instead
/// of spending more epsilon. Each value moves by at most 5.77 sigma.
class GaussianPrivacyFilter : public Filter {
 public:
  GaussianPrivacyFilter(double sigma, std::uint64_t seed);
  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "GaussianPrivacy"; }
  double sigma() const { return sigma_; }

 private:
  double sigma_;
  core::Digest key_;
  std::int64_t round_ = 0;
  std::uint32_t calls_ = 0;  // releases so far in round_
};

/// Rescales the payload so its global L2 norm is at most `max_norm`
/// (typically used on kWeightDiff contributions).
class NormClipFilter : public Filter {
 public:
  explicit NormClipFilter(double max_norm) : max_norm_(max_norm) {}
  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "NormClip"; }

 private:
  double max_norm_;
};

/// Differential-privacy Gaussian mechanism: clip the update's global L2
/// norm to `clip_norm`, then add i.i.d. N(0, (noise_multiplier*clip_norm)^2)
/// noise — the calibrated form whose per-release (epsilon, delta) cost
/// DpAccountant tracks. Composes the two classic filters in the one order
/// that makes the sensitivity bound (and therefore the accounting) valid:
/// clip first, then noise.
class DpGaussianFilter : public Filter {
 public:
  DpGaussianFilter(double clip_norm, double noise_multiplier, std::uint64_t seed);
  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "DpGaussian"; }
  double clip_norm() const { return clip_norm_; }
  double noise_multiplier() const { return noise_multiplier_; }

 private:
  double clip_norm_;
  double noise_multiplier_;
  NormClipFilter clip_;
  GaussianPrivacyFilter noise_;
};

/// Simple (epsilon, delta) accountant for the Gaussian mechanism under
/// basic composition: each release with noise multiplier z >= the classic
/// calibration bound costs epsilon_round = sqrt(2 ln(1.25/delta)) / z, and
/// R rounds spend R * epsilon_round at the same delta. Deliberately
/// conservative — an RDP/moments accountant is a drop-in refinement.
class DpAccountant {
 public:
  DpAccountant(double noise_multiplier, double delta);

  /// Privacy cost of one release.
  double epsilon_per_round() const { return epsilon_per_round_; }
  /// Total spend after `rounds` releases (basic composition).
  double epsilon_after(std::int64_t rounds) const {
    return epsilon_per_round_ * static_cast<double>(rounds);
  }
  double delta() const { return delta_; }

 private:
  double epsilon_per_round_;
  double delta_;
};

/// Client-side pre-scaling for *weighted* aggregation under secure
/// masking: masks only cancel through an unweighted sum, so instead of the
/// server weighting by num_samples, each site scales its own update by
/// (num_samples * num_sites / total_samples) before masking. The server's
/// uniform mean of the scaled updates then equals the weighted FedAvg
/// mean. `total_samples` is the federation-wide sample count, known at
/// provisioning time in the clinical setting.
class PreScaleFilter : public Filter {
 public:
  PreScaleFilter(std::int64_t num_sites, std::int64_t total_samples);
  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "PreScale"; }

 private:
  std::int64_t num_sites_;
  std::int64_t total_samples_;
};

/// Drops parameters whose dotted name starts with `prefix` (NVFlare's
/// ExcludeVars): e.g. keep a site-specific head local by excluding "head.".
class ExcludeVarsFilter : public Filter {
 public:
  explicit ExcludeVarsFilter(std::string prefix) : prefix_(std::move(prefix)) {}
  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "ExcludeVars(" + prefix_ + ")"; }

 private:
  std::string prefix_;
};

}  // namespace cppflare::flare
