// Hierarchical (tree-of-aggregators) FedAvg and the canonical pairwise tree
// reduction shared with the flat aggregator.
//
// The point of the exercise is bitwise reproducibility: a two-level
// aggregation (leaf aggregators each reduce a shard of sites, the root
// reduces the leaf partials) must produce memcmp-identical bytes to the
// flat aggregator on the same contributions. Float addition is not
// associative, so "sum the shard, then sum the partials" only matches flat
// if *both* sides commit to the same reduction tree. We use the canonical
// pairwise tree:
//
//   T(x_0..x_{n-1}) = T(x_0..x_{p-1}) + T(x_p..x_{n-1}),
//   p = largest power of two strictly below n;  T(x_i) = w_i * x_i.
//
// Truncating that tree at an aligned power-of-two block granularity B
// (sites sorted by name, block k = sites [kB, (k+1)B)) yields exactly the
// canonical tree over the ceil(n/B) block partials: every full block — and
// the final ragged one — is a complete subtree. Hence a hierarchical
// reduction with power-of-two fanout B reproduces the flat tree bit for bit
// for ANY contributor count, as long as every contributor of the round sits
// in its name-sorted block. (With fixed roster-range shards and partial
// participation the block boundaries no longer align with the contributor
// count and equality is not guaranteed — see DESIGN.md §13.)
//
// Scalar bookkeeping (weight sums, loss-weighted metric means) is NOT tree
// reduced: it stays a sequential double sum over the same sorted order in
// both modes (see FedAvgAggregator::reduce), so the final 1/weight_sum
// scale matches too.
//
// Both levels run flare/fold_kernels.h's fold_tree: a block's partial is the
// tree over its contributions, and the root is the tree over the partials
// (taken as leaves as they are) with FedAvg's tail folded into its pass.
#pragma once

#include <cstdint>
#include <string>

#include "flare/aggregator.h"

namespace cppflare::flare {

/// Two-level FedAvg: contributions are split into name-sorted blocks of
/// `fanout` sites, each block is reduced by a "leaf aggregator" (the blocks
/// reduce independently — on the compute pool when it pays), and the root
/// combines the leaf partials. Semantics, validation, revocation and
/// metrics are inherited from FedAvgAggregator unchanged; only the
/// reduction shape differs, and by the block-subtree property above the
/// result is memcmp-equal to flat FedAvg.
///
/// `fanout` must be a power of two >= 2 (that is what keeps leaf blocks
/// aligned subtrees of the flat canonical tree).
class HierarchicalFedAvgAggregator : public FedAvgAggregator {
 public:
  explicit HierarchicalFedAvgAggregator(bool weighted = true,
                                        std::int64_t fanout = 16);

  std::string name() const override;
  std::int64_t fanout() const { return fanout_; }

 protected:
  nn::StateDict reduce_pending(const FoldTail& tail) const override;

 private:
  std::int64_t fanout_;
};

}  // namespace cppflare::flare
