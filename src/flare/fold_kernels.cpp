// Compiled with -ffp-contract=off, -fno-math-errno and -fno-trapping-math
// (src/flare/CMakeLists.txt): every multiply and add below rounds on its
// own, so the vector code the compiler makes of these loops and the scalar
// code of a sanitizer build compute the same bits.
#include "flare/fold_kernels.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/error.h"

namespace cppflare::flare {

namespace {

constexpr std::uint32_t kExponentMask = 0x7f800000u;

/// fold_chunk's prefetch distance (1 KB) and step (a 64-byte cache line).
constexpr std::size_t kPrefetchAhead = 4 * kFoldChunk;
constexpr std::size_t kFloatsPerLine = 64 / sizeof(float);

template <bool kHasBase>
[[gnu::always_inline]] inline void screen_body(const float* x, const float* base,
                                               std::size_t n, ScreenSums& sums) {
  double lanes[kScreenLanes];
  std::uint32_t bad[kScreenLanes] = {};
  std::copy(sums.lanes, sums.lanes + kScreenLanes, lanes);
  // Lane l takes the elements l, l + 8, l + 16, ... in index order; with
  // one accumulator per lane the eight chains are independent, so the
  // compiler keeps them in two vector registers.
  std::size_t i = 0;
  for (; i + kScreenLanes <= n; i += kScreenLanes) {
    for (std::size_t l = 0; l < kScreenLanes; ++l) {
      const float v = x[i + l];
      bad[l] |= (std::bit_cast<std::uint32_t>(v) & kExponentMask) == kExponentMask;
      const double d = kHasBase ? static_cast<double>(v) - static_cast<double>(base[i + l])
                                : static_cast<double>(v);
      lanes[l] += d * d;
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const float v = x[i];
    bad[l] |= (std::bit_cast<std::uint32_t>(v) & kExponentMask) == kExponentMask;
    const double d = kHasBase ? static_cast<double>(v) - static_cast<double>(base[i])
                              : static_cast<double>(v);
    lanes[l] += d * d;
  }
  std::uint32_t any_bad = 0;
  for (std::size_t l = 0; l < kScreenLanes; ++l) {
    sums.lanes[l] = lanes[l];
    any_bad |= bad[l];
  }
  if (any_bad != 0) sums.finite = false;
}

/// dst = the leaf: 0.0f + weight * x, or x itself for a partial.
void load_leaf(const FoldLeaf& leaf, const float* x, float* dst, std::size_t m) {
  if (leaf.partial) {
    std::copy(x, x + m, dst);
    return;
  }
  const float w = leaf.weight;
  for (std::size_t k = 0; k < m; ++k) dst[k] = 0.0f + w * x[k];
}

/// dst = a + b for two sibling contribution leaves, both read in one pass.
void load_leaf_pair(const FoldLeaf& a, const float* x, const FoldLeaf& b,
                    const float* y, float* dst, std::size_t m) {
  const float wa = a.weight;
  const float wb = b.weight;
  for (std::size_t k = 0; k < m; ++k) dst[k] = (0.0f + wa * x[k]) + (0.0f + wb * y[k]);
}

/// dst = dst + leaf: a leaf added straight into its left sibling.
void add_leaf(const FoldLeaf& leaf, const float* x, float* dst, std::size_t m) {
  if (leaf.partial) {
    for (std::size_t k = 0; k < m; ++k) dst[k] = dst[k] + x[k];
    return;
  }
  const float w = leaf.weight;
  for (std::size_t k = 0; k < m; ++k) dst[k] = dst[k] + (0.0f + w * x[k]);
}

/// left = left + 1.0f * right (multiplying by 1.0f is exact, so it is left out).
void add_node(float* left, const float* right, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) left[k] = left[k] + right[k];
}

/// The canonical tree over one chunk: elements [offset, offset + m) of every
/// leaf's tensor (each `len` long). Evaluated as a binary counter — a leaf
/// is pushed, then the two top subtrees merge while they are the same size —
/// which builds the complete power-of-two subtrees of the canonical split;
/// the leftover stack (one subtree per set bit of n, largest first) then
/// merges right to left: T(n) = T(p) + T(n - p). Slot d of `scratch` holds
/// the stack's level d. Returns the root's slot.
float* fold_chunk(const FoldLeaf* leaves, const float* const* tensors,
                  std::size_t n, std::size_t offset, std::size_t m,
                  std::size_t len, float* scratch) {
  const auto slot = [scratch](std::size_t d) { return scratch + d * kFoldChunk; };
  // The leaves are read a short run at a time, one leaf after another: ask
  // now for each leaf's run kPrefetchAhead elements on, so the reads of all
  // the leaves are in flight together instead of each starting cold. A hint
  // only; it changes no value.
  const std::size_t ahead = std::min(offset + kPrefetchAhead + m, len);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = offset + kPrefetchAhead; k < ahead; k += kFloatsPerLine) {
      __builtin_prefetch(tensors[i] + k);
    }
  }
  std::size_t sizes[64];
  std::size_t depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* x = tensors[i] + offset;
    if (depth > 0 && sizes[depth - 1] == 1) {
      add_leaf(leaves[i], x, slot(depth - 1), m);
      sizes[depth - 1] = 2;
    } else if (i + 1 < n && !leaves[i].partial && !leaves[i + 1].partial) {
      // The leaf and its right sibling in one pass (what load_leaf then
      // add_leaf would compute).
      load_leaf_pair(leaves[i], x, leaves[i + 1], tensors[i + 1] + offset,
                     slot(depth), m);
      sizes[depth++] = 2;
      ++i;
    } else {
      load_leaf(leaves[i], x, slot(depth), m);
      sizes[depth++] = 1;
    }
    while (depth >= 2 && sizes[depth - 1] == sizes[depth - 2]) {
      add_node(slot(depth - 2), slot(depth - 1), m);
      sizes[depth - 2] *= 2;
      --depth;
    }
  }
  for (; depth >= 2; --depth) add_node(slot(depth - 2), slot(depth - 1), m);
  return slot(0);
}

void apply_tail(const FoldTail& tail, const float* base, float* root, std::size_t m) {
  if (tail.scale.has_value()) {
    const float s = *tail.scale;
    for (std::size_t k = 0; k < m; ++k) root[k] = root[k] * s;
  }
  if (base != nullptr) {
    for (std::size_t k = 0; k < m; ++k) root[k] = base[k] + root[k];
  }
}

}  // namespace

double ScreenSums::sum_of_squares() const {
  double sum = lanes[0];
  for (std::size_t l = 1; l < kScreenLanes; ++l) sum += lanes[l];
  return sum;
}

void screen_tensor(const float* x, const float* base, std::size_t n,
                   ScreenSums& sums) {
  if (base != nullptr) {
    screen_body<true>(x, base, n, sums);
  } else {
    screen_body<false>(x, nullptr, n, sums);
  }
}

nn::StateDict fold_tree(const FoldLeaf* leaves, std::size_t n,
                        const FoldTail& tail) {
  if (n == 0) throw Error("fold_tree: empty reduction");
  const nn::StateDict::Map& shape = leaves[0].data->entries();
  for (std::size_t i = 0; i < n; ++i) {
    if (leaves[i].data->size() != shape.size()) {
      throw Error("fold_tree: incongruent leaves");
    }
  }
  if (tail.base != nullptr && tail.base->size() != shape.size()) {
    throw Error("fold_tree: incongruent base");
  }
  // The maps are congruent, so one iterator per leaf walks them in step and
  // each tensor's data pointer is resolved once.
  std::vector<nn::StateDict::Map::const_iterator> cursors;
  cursors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) cursors.push_back(leaves[i].data->entries().begin());
  auto base_cursor = tail.base != nullptr ? tail.base->entries().begin()
                                          : nn::StateDict::Map::const_iterator{};
  std::vector<const float*> tensors(n);
  std::vector<float> scratch(static_cast<std::size_t>(std::bit_width(n)) * kFoldChunk);

  nn::StateDict out;
  for (const auto& [name, blob] : shape) {
    const std::size_t len = blob.values.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float>& values = (cursors[i]++)->second.values;
      if (values.size() != len) throw Error("fold_tree: incongruent leaves");
      tensors[i] = values.data();
    }
    const float* base = nullptr;
    if (tail.base != nullptr) {
      const std::vector<float>& values = (base_cursor++)->second.values;
      if (values.size() != len) throw Error("fold_tree: incongruent base");
      base = values.data();
    }
    nn::ParamBlob result;
    result.shape = blob.shape;
    result.values.reserve(len);
    for (std::size_t offset = 0; offset < len; offset += kFoldChunk) {
      const std::size_t m = std::min(kFoldChunk, len - offset);
      float* root =
          fold_chunk(leaves, tensors.data(), n, offset, m, len, scratch.data());
      apply_tail(tail, base == nullptr ? nullptr : base + offset, root, m);
      result.values.insert(result.values.end(), root, root + m);
    }
    out.insert(name, std::move(result));
  }
  return out;
}

}  // namespace cppflare::flare
