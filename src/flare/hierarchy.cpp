#include "flare/hierarchy.h"

#include <algorithm>
#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"

#define CPPFLARE_LOG_COMPONENT "HierAggregator"

namespace cppflare::flare {

namespace {

bool is_pow2(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

HierarchicalFedAvgAggregator::HierarchicalFedAvgAggregator(bool weighted,
                                                           std::int64_t fanout)
    : FedAvgAggregator(weighted), fanout_(fanout) {
  if (fanout_ < 2 || !is_pow2(fanout_)) {
    throw ConfigError(
        "HierarchicalFedAvgAggregator: fanout must be a power of two >= 2, "
        "got " +
        std::to_string(fanout_));
  }
}

std::string HierarchicalFedAvgAggregator::name() const {
  return std::string("HierFedAvg(") + (weighted_ ? "weighted" : "uniform") +
         ",fanout=" + std::to_string(fanout_) + ")";
}

nn::StateDict HierarchicalFedAvgAggregator::reduce_pending(
    const FoldTail& tail) const {
  const std::vector<FoldLeaf> leaves = pending_leaves();
  const std::size_t block = static_cast<std::size_t>(fanout_);
  const std::size_t num_blocks = (leaves.size() + block - 1) / block;
  if (num_blocks <= 1) return fold_tree(leaves.data(), leaves.size(), tail);

  // Leaf level: each power-of-two-aligned block is an independent shard —
  // exactly what a leaf aggregator would hold. Blocks write disjoint slots,
  // so running them on the compute pool keeps the result deterministic.
  std::vector<nn::StateDict> partials(num_blocks);
  core::parallel_for(0, static_cast<std::int64_t>(num_blocks), 1,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t b = lo; b < hi; ++b) {
                         const std::size_t begin =
                             static_cast<std::size_t>(b) * block;
                         const std::size_t len =
                             std::min(block, leaves.size() - begin);
                         partials[static_cast<std::size_t>(b)] =
                             fold_tree(leaves.data() + begin, len);
                       }
                     });
  // Root level: the canonical tree over the leaf partials reproduces the
  // flat tree bit for bit (block-subtree property, see header).
  std::vector<FoldLeaf> roots;
  roots.reserve(num_blocks);
  for (const nn::StateDict& partial : partials) {
    roots.push_back(FoldLeaf{&partial, 1.0f, /*partial=*/true});
  }
  return fold_tree(roots.data(), roots.size(), tail);
}

}  // namespace cppflare::flare
