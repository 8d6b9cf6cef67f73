// Bulk kernels behind the server's per-round folds (internal).
//
// Every round the server screens each site's update (flare/validator.h) and
// averages the admitted ones (flare/aggregator.h). Both folds walk whole
// models, so both are written to read every input element once and write
// every output element once:
//
//  * screen_tensor gives the finite flag and the deviation sum of squares
//    of one tensor in the same pass;
//  * fold_tree computes FedAvg's canonical pairwise tree (flare/hierarchy.h)
//    chunk by chunk, with one L1-sized scratch chunk per tree level, and
//    passes the root through FedAvg's tail (the 1/weight_sum scale and the
//    kWeightDiff add) before writing it.
//
// Both are plain C++ compiled with -ffp-contract=off (src/flare/CMakeLists.txt):
// no multiply and add is fused, and the summation order is fixed in the
// source, so release and sanitizer builds compute the same bits.
#pragma once

#include <cstddef>
#include <optional>

#include "nn/state_dict.h"

namespace cppflare::flare {

/// Accumulators of the update screen. The deviation sum of squares is kept
/// in kScreenLanes double lanes: element i of a tensor adds to lane i mod 8
/// (the index counts from each tensor's start), and the lanes carry over
/// from one tensor to the next.
inline constexpr std::size_t kScreenLanes = 8;

struct ScreenSums {
  /// Cleared once any screened element is NaN or ±Inf.
  bool finite = true;
  double lanes[kScreenLanes] = {};

  /// The lanes summed in lane order: ((l0 + l1) + l2) + ... + l7.
  double sum_of_squares() const;
};

/// One pass over x[0..n): clears sums.finite if any x[i] is NaN or ±Inf and
/// adds d * d to lane i mod 8, d = double(x[i]) - double(base[i]) (or
/// double(x[i]) when base is null).
void screen_tensor(const float* x, const float* base, std::size_t n,
                   ScreenSums& sums);

/// Elements per chunk of fold_tree: 256 bytes per tree level, so the
/// scratch stays in L1 and every leaf's tensor is read in short runs, which
/// lets the reads of all the leaves overlap.
inline constexpr std::size_t kFoldChunk = 64;

/// One leaf of the canonical tree: a contribution, taken as
/// 0.0f + weight * x, or (partial) an already reduced subtree, taken as is.
struct FoldLeaf {
  const nn::StateDict* data = nullptr;
  float weight = 1.0f;
  bool partial = false;
};

/// What the tree's root goes through before it is written.
struct FoldTail {
  /// root * scale (FedAvg's 1/weight_sum); no multiply when unset.
  std::optional<float> scale;
  /// Then base + 1.0f * root (a kWeightDiff round's global model).
  const nn::StateDict* base = nullptr;
};

/// The canonical pairwise tree over leaves[0..n) — split at the largest
/// power of two strictly below n, a node is left + 1.0f * right — passed
/// through `tail`. Every leaf (and the base) must be congruent with
/// leaves[0]; the result has its keys and shapes. Throws if n == 0.
nn::StateDict fold_tree(const FoldLeaf* leaves, std::size_t n,
                        const FoldTail& tail = {});

}  // namespace cppflare::flare
