#include "flare/filters.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bytes.h"
#include "core/error.h"
#include "core/keyed_stream_kernel.h"
#include "flare/privacy_kernels.h"

namespace cppflare::flare {

void FilterChain::process(Dxo& dxo, const FLContext& ctx) const {
  for (const auto& f : filters_) f->process(dxo, ctx);
}

GaussianPrivacyFilter::GaussianPrivacyFilter(double sigma, std::uint64_t seed)
    : sigma_(sigma) {
  core::ByteWriter seed_key;
  seed_key.write_u64(seed);
  key_ = core::hmac_sha256(seed_key.bytes(),
                           reinterpret_cast<const std::uint8_t*>("dp-noise"), 8);
}

void GaussianPrivacyFilter::process(Dxo& dxo, const FLContext& ctx) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  if (ctx.current_round != round_) {
    round_ = ctx.current_round;
    calls_ = 0;
  }
  core::ByteWriter nonce_bytes;
  nonce_bytes.write_u64(static_cast<std::uint64_t>(round_));
  nonce_bytes.write_u32(calls_++);
  core::KeyedStream::Nonce nonce{};
  std::copy(nonce_bytes.bytes().begin(), nonce_bytes.bytes().end(), nonce.begin());
  const core::KeyedStream stream(key_, nonce);
  const core::KeyedStreamKernel kernel = core::keyed_stream_active_kernel();
  const auto sigma = static_cast<float>(sigma_);
  // Chunks start at multiples of 1024 words, so at whole Box–Muller groups.
  for_each_chunk(dxo.data(), [&](std::uint64_t first, float* values, std::size_t n) {
    const std::size_t groups = (n + 31) / 32;
    std::uint32_t words[kPrivacyChunkWords];
    float noise[kPrivacyChunkWords];
    // R11-exempt: KeyedStream::read returns void (Wal::read shares the name)
    stream.read(first, 32 * groups, words);
    gaussian_from_words(kernel, words, groups, noise);
    add_scaled(sigma, noise, values, n);
  });
}

void NormClipFilter::process(Dxo& dxo, const FLContext&) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  // Eight interleaved partial sums (element i of a blob into partial i % 8)
  // break the add latency chain so the pass vectorizes; the order is fixed,
  // so the norm is the same on every run.
  double partial[8] = {};
  for (const auto& [name, blob] : dxo.data().entries()) {
    const float* v = blob.values.data();
    const std::size_t n = blob.values.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      for (std::size_t k = 0; k < 8; ++k) {
        partial[k] += static_cast<double>(v[i + k]) * v[i + k];
      }
    }
    for (std::size_t k = 0; i < n; ++i, ++k) {
      partial[k] += static_cast<double>(v[i]) * v[i];
    }
  }
  double sq = 0.0;
  for (const double p : partial) sq += p;
  const double norm = std::sqrt(sq);
  // A NaN/Inf norm means the payload itself is non-finite; scaling by
  // max_norm/NaN would smear NaN over every value. Pass it through and let
  // the server-side validator reject the whole update.
  if (!std::isfinite(norm)) return;
  if (norm <= max_norm_ || norm == 0.0) return;
  const float scale = static_cast<float>(max_norm_ / norm);
  for (auto& [name, blob] : dxo.data().entries()) {
    for (float& v : blob.values) v *= scale;
  }
}

DpGaussianFilter::DpGaussianFilter(double clip_norm, double noise_multiplier,
                                   std::uint64_t seed)
    : clip_norm_(clip_norm),
      noise_multiplier_(noise_multiplier),
      clip_(clip_norm),
      noise_(noise_multiplier * clip_norm, seed) {
  if (clip_norm <= 0.0) throw Error("DpGaussianFilter: clip_norm must be > 0");
  if (noise_multiplier < 0.0) {
    throw Error("DpGaussianFilter: noise_multiplier must be >= 0");
  }
}

void DpGaussianFilter::process(Dxo& dxo, const FLContext& ctx) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  clip_.process(dxo, ctx);
  if (noise_multiplier_ > 0.0) noise_.process(dxo, ctx);
}

DpAccountant::DpAccountant(double noise_multiplier, double delta)
    : delta_(delta) {
  if (delta <= 0.0 || delta >= 1.0) {
    throw Error("DpAccountant: delta must be in (0, 1)");
  }
  // Classic Gaussian-mechanism calibration (Dwork & Roth Thm A.1),
  // inverted: sigma = z * C covers sensitivity C at
  // epsilon = sqrt(2 ln(1.25/delta)) / z. z == 0 means no noise: the
  // mechanism offers no DP guarantee, reported as infinite spend.
  epsilon_per_round_ =
      noise_multiplier > 0.0
          ? std::sqrt(2.0 * std::log(1.25 / delta)) / noise_multiplier
          : std::numeric_limits<double>::infinity();
}

PreScaleFilter::PreScaleFilter(std::int64_t num_sites,
                               std::int64_t total_samples)
    : num_sites_(num_sites), total_samples_(total_samples) {
  if (num_sites <= 0 || total_samples <= 0) {
    throw Error("PreScaleFilter: num_sites and total_samples must be > 0");
  }
}

void PreScaleFilter::process(Dxo& dxo, const FLContext&) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  const std::int64_t samples = dxo.meta_int(Dxo::kMetaNumSamples, 1);
  const float factor =
      static_cast<float>(static_cast<double>(samples) *
                         static_cast<double>(num_sites_) /
                         static_cast<double>(total_samples_));
  for (auto& [name, blob] : dxo.data().entries()) {
    for (float& v : blob.values) v *= factor;
  }
}

void ExcludeVarsFilter::process(Dxo& dxo, const FLContext&) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  auto& entries = dxo.data().entries();
  for (auto it = entries.begin(); it != entries.end();) {
    if (it->first.rfind(prefix_, 0) == 0) {
      it = entries.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace cppflare::flare
