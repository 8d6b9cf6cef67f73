#include "flare/secure_agg.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "core/bytes.h"
#include "core/error.h"
#include "core/keyed_stream_kernel.h"
#include "core/sha256.h"
#include "flare/privacy_kernels.h"

namespace cppflare::flare {

namespace {

float dequantize(std::uint32_t word, std::int64_t frac_bits) {
  const auto q = static_cast<std::int32_t>(word);
  return static_cast<float>(static_cast<double>(q) /
                            static_cast<double>(std::int64_t{1} << frac_bits));
}

/// One pair's mask key for a round: HMAC-SHA256(pair key, "mask" ‖ le64(round)).
/// Both members of the pair derive the same key.
core::Digest mask_key(const std::vector<std::uint8_t>& pair_key,
                      std::int64_t round) {
  core::ByteWriter message;
  message.write_raw(reinterpret_cast<const std::uint8_t*>("mask"), 4);
  message.write_u64(static_cast<std::uint64_t>(round));
  return core::hmac_sha256(pair_key, message.bytes());
}

}  // namespace

std::vector<std::uint8_t> SecureAggregationDealer::pair_key(
    const std::string& site_a, const std::string& site_b) const {
  if (site_a == site_b) throw Error("pair_key: a pair needs two distinct sites");
  const std::string lo = std::min(site_a, site_b);
  const std::string hi = std::max(site_a, site_b);
  const core::Digest digest = core::Sha256::hash(
      "pairkey:" + project_name_ + "\x1f" + std::to_string(seed_) + "\x1f" + lo +
      "\x1f" + hi);
  return std::vector<std::uint8_t>(digest.begin(), digest.end());
}

SecureAggMaskFilter::SecureAggMaskFilter(std::string self_site,
                                         std::vector<std::string> all_sites,
                                         const SecureAggregationDealer& dealer,
                                         std::int64_t frac_bits)
    : self_site_(std::move(self_site)), frac_bits_(frac_bits) {
  if (frac_bits_ < 1 || frac_bits_ > 30) {
    throw Error("SecureAggMaskFilter: frac_bits must be in [1, 30]");
  }
  bool found_self = false;
  for (const std::string& site : all_sites) {
    if (site == self_site_) {
      found_self = true;
      continue;
    }
    other_sites_.push_back(site);
    pair_keys_.push_back(dealer.pair_key(self_site_, site));
  }
  if (!found_self) {
    throw Error("SecureAggMaskFilter: self site '" + self_site_ +
                "' not in participant list");
  }
  if (other_sites_.empty()) {
    throw Error("SecureAggMaskFilter: need at least two sites");
  }
}

void SecureAggMaskFilter::apply_masks(nn::StateDict& dict,
                                      const std::vector<std::size_t>& peers,
                                      std::int64_t round) const {
  std::vector<core::KeyedStream> streams;
  std::vector<bool> adds;
  for (const std::size_t p : peers) {
    streams.emplace_back(mask_key(pair_keys_[p], round), core::KeyedStream::Nonce{});
    // The lexicographically smaller site adds each word, the larger
    // subtracts it (mod 2^32).
    adds.push_back(self_site_ < other_sites_[p]);
  }
  const core::KeyedStreamKernel kernel = core::keyed_stream_active_kernel();
  for_each_chunk(dict, [&](std::uint64_t first, float* values, std::size_t n) {
    std::uint32_t words[kPrivacyChunkWords];
    std::uint32_t mask[kPrivacyChunkWords];
    quantize_words(kernel, values, words, n, frac_bits_);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      streams[s].read(first, n, mask);
      if (adds[s]) {
        for (std::size_t i = 0; i < n; ++i) words[i] += mask[i];
      } else {
        for (std::size_t i = 0; i < n; ++i) words[i] -= mask[i];
      }
    }
    std::memcpy(values, words, n * sizeof(std::uint32_t));
  });
}

void SecureAggMaskFilter::process(Dxo& dxo, const FLContext& ctx) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  std::vector<std::size_t> peers(other_sites_.size());
  std::iota(peers.begin(), peers.end(), std::size_t{0});
  apply_masks(dxo.data(), peers, ctx.current_round);
  skeleton_ = nn::StateDict{};
  for (const auto& [name, blob] : dxo.data().entries()) skeleton_.insert(name, {blob.shape, {}});
}

Dxo SecureAggMaskFilter::unmask_share(const std::vector<std::string>& dropped,
                                      std::int64_t round) const {
  return unmask_share(dropped, round, nn::StateDict{});
}

Dxo SecureAggMaskFilter::unmask_share(
    const std::vector<std::string>& dropped, std::int64_t round,
    const nn::StateDict& fallback_skeleton) const {
  if (skeleton_.empty() && fallback_skeleton.empty()) {
    throw Error("SecureAggMaskFilter: unmask_share before any masked upload");
  }
  // Zeros (which quantize to word 0) in the element order process used; a
  // restarted process that never masked this round falls back to the
  // server-supplied template. A blob holds the product of its shape in
  // values, as StateDict::deserialize enforces on every upload.
  nn::StateDict sum = skeleton_.empty() ? fallback_skeleton : skeleton_;
  for (auto& [name, blob] : sum.entries()) {
    std::int64_t count = 1;
    for (const std::int64_t d : blob.shape) count *= d;
    blob.values.assign(static_cast<std::size_t>(count), 0.0f);
  }
  std::vector<std::size_t> peers;
  for (std::size_t p = 0; p < other_sites_.size(); ++p) {
    if (std::find(dropped.begin(), dropped.end(), other_sites_[p]) != dropped.end()) {
      peers.push_back(p);
    }
  }
  apply_masks(sum, peers, round);
  return Dxo(DxoKind::kWeights, std::move(sum));
}

MaskedFedAvgAggregator::MaskedFedAvgAggregator(std::int64_t frac_bits)
    : FedAvgAggregator(/*weighted=*/false), frac_bits_(frac_bits) {
  if (frac_bits_ < 1 || frac_bits_ > 30) {
    throw Error("MaskedFedAvgAggregator: frac_bits must be in [1, 30]");
  }
}

void MaskedFedAvgAggregator::reset(const nn::StateDict& global,
                                   std::int64_t round) {
  FedAvgAggregator::reset(global, round);
  shares_.clear();
}

std::vector<std::string> MaskedFedAvgAggregator::accepted_sites() const {
  std::vector<std::string> sites;
  sites.reserve(pending_.size());
  for (const auto& [site, p] : pending_) sites.push_back(site);
  return sites;
}

bool MaskedFedAvgAggregator::set_unmask_share(const std::string& survivor,
                                              const Dxo& share) {
  if (pending_.count(survivor) == 0) return false;
  if (!share.data().congruent_with(global_)) return false;
  shares_[survivor] = share;
  return true;
}

void MaskedFedAvgAggregator::clear_unmask_shares() { shares_.clear(); }

std::int64_t MaskedFedAvgAggregator::unmask_share_count() const {
  return static_cast<std::int64_t>(shares_.size());
}

nn::StateDict MaskedFedAvgAggregator::reduce_pending(const FoldTail& tail) const {
  // Word-wise modular sum of the masked contributions. Order-independent
  // by construction (modular addition commutes), but iterate site-name
  // order anyway to mirror the float path.
  nn::StateDict accum = global_.zeros_like();
  auto fold = [&accum](const nn::StateDict& d, bool add) {
    auto it = accum.entries().begin();
    for (const auto& [name, blob] : d.entries()) {
      auto& out = it->second.values;
      for (std::size_t i = 0; i < blob.values.size(); ++i) {
        const std::uint32_t a = std::bit_cast<std::uint32_t>(out[i]);
        const std::uint32_t b = std::bit_cast<std::uint32_t>(blob.values[i]);
        out[i] = std::bit_cast<float>(add ? a + b : a - b);
      }
      ++it;
    }
  };
  for (const auto& [site, p] : pending_) fold(p.dxo.data(), /*add=*/true);
  // Dropout recovery: strip the survivors' revealed mask sums against the
  // dropped set; masks among the summed contributors already cancelled.
  for (const auto& [site, share] : shares_) fold(share.data(), /*add=*/false);
  for (auto& [name, blob] : accum.entries()) {
    for (float& v : blob.values) {
      v = dequantize(std::bit_cast<std::uint32_t>(v), frac_bits_);
    }
  }
  const FoldLeaf sum{&accum, 1.0f, /*partial=*/true};
  return fold_tree(&sum, 1, tail);
}

std::shared_ptr<SecureAggMaskFilter> make_secure_agg_mask_filter(
    const std::string& project_name, std::uint64_t dealer_seed,
    const std::string& self_site, const std::vector<std::string>& all_sites,
    std::int64_t frac_bits) {
  const SecureAggregationDealer dealer(project_name, dealer_seed);
  return std::make_shared<SecureAggMaskFilter>(self_site, all_sites, dealer,
                                               frac_bits);
}

}  // namespace cppflare::flare
