// Secure aggregation by pairwise additive masking over fixed-point words.
//
// Threat model: honest-but-curious server. Each pair of sites (a, b)
// receives a shared pairwise key at provisioning time (trusted-dealer
// setup; production systems derive it with Diffie-Hellman). Before
// uploading, site s quantizes every update value to a signed fixed-point
// word q = round(v * 2^frac_bits), then adds, for every other site o, a
// pseudorandom uint32 mask stream for (pair key, round) — modulo 2^32,
// with sign +1 if s < o lexicographically and -1 otherwise — and ships
// the masked word bit-cast into the float slot. Summing the words
// modulo 2^32 cancels every mask *exactly* (modular addition is
// associative and commutative, unlike float addition), so the server
// learns only the quantized aggregate:
//
//   sum_s (q_s + m_s) = sum_s q_s  (mod 2^32)   since  sum_s m_s = 0.
//
// Mask streams: the pair's round key is HMAC-SHA256(pair key, "mask" ‖
// le64(round)); the stream is ChaCha20 (core::KeyedStream) under that key
// with an all-zero nonce, the key being unique per (pair, round). Word i of
// the stream masks element i of the update flattened in map order, so one
// chunked pass quantizes and applies every peer's stream, and the chunks
// split over compute threads with bit-identical output at every budget.
// ChaCha20 is a keyed PRG: a peer's observed mask words do not predict the
// rest of its stream, which pairwise masking (Bonawitz et al., CCS 2017)
// assumes.
//
// Dropout recovery: when a site's contribution is missing, the survivors'
// masks against it no longer cancel. The server then asks each survivor
// for its *summed* mask stream against the dropped set
// (`unmask_share`), subtracts the revealed sums, and only then decodes.
// The server never sees an individual pairwise mask, so no single link —
// and therefore no single update — is ever unmasked (DESIGN.md §14).
//
// Cancellation requires an unweighted sum, so pair the filter with
// FedAvgAggregator(weighted=false) semantics — `MaskedFedAvgAggregator`
// enforces exactly that — or have clients pre-scale their update by the
// known sample weight (flare/filters.h PreScaleFilter).
//
// Headroom: the decoded sum must satisfy |sum_s v_s| < 2^(31 - frac_bits)
// or the modular sum wraps. frac_bits = 16 leaves +-32768.0 of headroom
// on the aggregate, ample for normalized clinical models.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flare/aggregator.h"
#include "flare/filters.h"
#include "flare/provision.h"

namespace cppflare::flare {

/// Deals deterministic symmetric pairwise keys for a project. The server
/// must never be given the dealer (only sites hold their pairwise keys) —
/// lint R12 keeps references out of everything but this unit and
/// provisioning.
class SecureAggregationDealer {
 public:
  SecureAggregationDealer(std::string project_name, std::uint64_t seed)
      : project_name_(std::move(project_name)), seed_(seed) {}

  /// 32-byte key shared by exactly the pair {a, b}; symmetric in a/b.
  std::vector<std::uint8_t> pair_key(const std::string& site_a,
                                     const std::string& site_b) const;

 private:
  std::string project_name_;
  std::uint64_t seed_;
};

/// Client-side filter: quantizes the update and applies the pairwise mask
/// words for `self_site` against every other site in `all_sites`. Both
/// members of a pair expand (pair key, round) to identical uint32 streams
/// and apply opposite signs modulo 2^32.
class SecureAggMaskFilter : public Filter {
 public:
  SecureAggMaskFilter(std::string self_site, std::vector<std::string> all_sites,
                      const SecureAggregationDealer& dealer,
                      std::int64_t frac_bits = 16);

  void process(Dxo& dxo, const FLContext& ctx) override;
  std::string name() const override { return "SecureAggMask(" + self_site_ + ")"; }

  /// Recovery: the sum of this site's mask streams against `dropped` for
  /// `round`, modulo 2^32, bit-cast into a kWeights DXO with the skeleton
  /// of the last masked upload. Only ever a *sum* over the dropped set —
  /// never one pairwise stream. Unknown names in `dropped` (including
  /// self) are ignored, so server and site need not agree on liveness.
  /// Throws Error when called before any upload was masked (no skeleton).
  Dxo unmask_share(const std::vector<std::string>& dropped,
                   std::int64_t round) const;

  /// Restart-tolerant variant: when this filter never masked an upload in
  /// this process (its skeleton died with a crash), shape the share from
  /// `fallback_skeleton` — the zeros template the server attaches to
  /// UnmaskRequest. Masks themselves are seed-derived from (pair key,
  /// round), so the share is identical either way. Throws only when both
  /// skeletons are empty.
  Dxo unmask_share(const std::vector<std::string>& dropped, std::int64_t round,
                   const nn::StateDict& fallback_skeleton) const;

  std::int64_t frac_bits() const { return frac_bits_; }

 private:
  /// Quantizes `dict` in place and adds (or subtracts) the (pair, round)
  /// mask stream of each listed peer, word i of every stream landing on
  /// element i of the flattened dict: one chunked pass for all peers.
  void apply_masks(nn::StateDict& dict, const std::vector<std::size_t>& peers,
                   std::int64_t round) const;

  std::string self_site_;
  std::vector<std::string> other_sites_;
  std::vector<std::vector<std::uint8_t>> pair_keys_;  // parallel to other_sites_
  std::int64_t frac_bits_;
  /// Shape template of the last masked upload: names and shapes with no
  /// values, so unmask_share can draw streams in the exact element order
  /// process used without holding a zero copy of the update.
  nn::StateDict skeleton_;
};

/// Server-side aggregator for masked uploads. Accepts contributions like
/// uniform FedAvg (the masked words ride bit-cast in the float slots), but
/// reduces them as uint32 words modulo 2^32, subtracts any recorded unmask
/// shares, decodes the fixed-point sum back to floats, and only then runs
/// FedAvg's scalar tail (1/n scale, kWeightDiff apply) — so a masked
/// no-drop round is bit-for-bit identical to plain uniform FedAvg whenever
/// the updates are exactly representable on the 2^-frac_bits grid.
class MaskedFedAvgAggregator : public FedAvgAggregator,
                               public MaskRecoveryCapable {
 public:
  explicit MaskedFedAvgAggregator(std::int64_t frac_bits = 16);

  void reset(const nn::StateDict& global, std::int64_t round) override;
  std::string name() const override {
    return "MaskedFedAvg(q" + std::to_string(frac_bits_) + ")";
  }

  // MaskRecoveryCapable
  std::vector<std::string> accepted_sites() const override;
  bool set_unmask_share(const std::string& survivor, const Dxo& share) override;
  void clear_unmask_shares() override;
  std::int64_t unmask_share_count() const override;

 protected:
  /// Modular word sum over pending_ minus recorded shares, decoded to the
  /// float sum and passed through FedAvg's tail.
  nn::StateDict reduce_pending(const FoldTail& tail) const override;

 private:
  std::int64_t frac_bits_;
  std::map<std::string, Dxo> shares_;  // survivor -> revealed mask sum
};

/// Builds one site's mask filter without handing the caller the dealer:
/// the pairwise-key machinery stays inside this unit (lint R12). The
/// returned filter is shared so the simulator can both install it on the
/// outbound chain and route unmask requests to it.
std::shared_ptr<SecureAggMaskFilter> make_secure_agg_mask_filter(
    const std::string& project_name, std::uint64_t dealer_seed,
    const std::string& self_site, const std::vector<std::string>& all_sites,
    std::int64_t frac_bits = 16);

}  // namespace cppflare::flare
