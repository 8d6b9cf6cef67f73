#include <algorithm>
#include <numeric>

#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"

namespace cppflare::tensor {

using detail::make_result;

Tensor reshape(const Tensor& a, Shape shape) {
  if (numel_of(shape) != a.numel()) {
    throw ShapeError("reshape: cannot view " + shape_to_string(a.shape()) + " as " +
                     shape_to_string(shape));
  }
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(
      std::move(shape), {a.impl()}, [pa](const TensorImpl& self) {
        const float* g = self.grad.data();
        float* ga = pa->grad.data();
        const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
        backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) ga[i] += g[i];
        });
      });
  out.vec() = a.vec();
  return out;
}

namespace {

/// Row-major strides for a shape.
std::vector<std::int64_t> strides_of(const Shape& shape) {
  std::vector<std::int64_t> strides(shape.size(), 1);
  for (std::size_t i = shape.size(); i-- > 1;) {
    strides[i - 1] = strides[i] * shape[i];
  }
  return strides;
}

/// Copies `src` (laid out as `src_shape`) into `dst` permuted by `perm`:
/// dst index (i_perm[0], ..., i_perm[r-1]) = src index (i_0, ..., i_{r-1}).
/// When `inverse` is true the roles are swapped and dst accumulates, which
/// realizes the inverse permutation's gradient without computing it.
///
/// A perm that keeps its trailing axes in place (attention's {0, 2, 1, 3}
/// head split and merge) moves whole contiguous runs of them, so the walk
/// runs over the leading axes only and copies or accumulates one run at a
/// time. Element for element it does the same stores and adds as the
/// one-float walk, so the bits are the same.
void permute_copy(const float* src, float* dst, const Shape& src_shape,
                  const std::vector<std::int64_t>& perm, bool inverse) {
  std::size_t rank = src_shape.size();
  std::int64_t run = 1;
  while (rank > 0 && perm[rank - 1] == static_cast<std::int64_t>(rank) - 1) {
    run *= src_shape[rank - 1];
    --rank;
  }
  const Shape outer(src_shape.begin(), src_shape.begin() + rank);
  Shape dst_shape(rank);
  for (std::size_t i = 0; i < rank; ++i) dst_shape[i] = outer[perm[i]];
  const auto dst_strides = strides_of(dst_shape);

  const std::int64_t total = numel_of(outer);
  if (total == 0 || run == 0) return;
  // dst position of source axis k is perm^{-1}(k); precompute the stride the
  // destination run offset moves by when source index k increments.
  std::vector<std::int64_t> dst_stride_for_src_axis(rank, 0);
  for (std::size_t d = 0; d < rank; ++d) {
    dst_stride_for_src_axis[perm[d]] = dst_strides[d];
  }
  const auto src_strides = strides_of(outer);

  // Walk the source runs linearly per chunk; the destination run offset is
  // seeded from the chunk's first multi-index and then maintained
  // incrementally. Forward writes run dst_off (a bijection of linear),
  // inverse writes run linear — either way chunk outputs are disjoint.
  backend::parallel_rows(total, 2 * run, [&](std::int64_t l0, std::int64_t l1) {
    std::vector<std::int64_t> idx(rank, 0);
    std::int64_t dst_off = 0;
    std::int64_t rem = l0;
    for (std::size_t k = 0; k < rank; ++k) {
      idx[k] = rem / src_strides[k];
      rem %= src_strides[k];
      dst_off += idx[k] * dst_stride_for_src_axis[k];
    }
    for (std::int64_t linear = l0; linear < l1; ++linear) {
      if (inverse) {
        float* to = dst + linear * run;
        const float* from = src + dst_off * run;
        for (std::int64_t j = 0; j < run; ++j) to[j] += from[j];
      } else {
        std::copy_n(src + linear * run, run, dst + dst_off * run);
      }
      // Increment the multi-index (row-major, last axis fastest).
      for (std::size_t k = rank; k-- > 0;) {
        idx[k] += 1;
        dst_off += dst_stride_for_src_axis[k];
        if (idx[k] < outer[k]) break;
        dst_off -= dst_stride_for_src_axis[k] * outer[k];
        idx[k] = 0;
      }
    }
  });
}

}  // namespace

Tensor permute(const Tensor& a, const std::vector<std::int64_t>& perm) {
  const std::size_t rank = a.shape().size();
  if (perm.size() != rank) {
    throw ShapeError("permute: perm size " + std::to_string(perm.size()) +
                     " vs rank " + std::to_string(rank));
  }
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::int64_t p = perm[i];
    if (p < 0 || p >= static_cast<std::int64_t>(rank) || seen[p]) {
      throw ShapeError("permute: invalid permutation");
    }
    seen[p] = true;
    out_shape[i] = a.shape()[p];
  }
  TensorImpl* pa = a.impl().get();
  const Shape src_shape = a.shape();
  Tensor out = make_result(out_shape, {a.impl()},
                           [pa, src_shape, perm](const TensorImpl& self) {
                             permute_copy(self.grad.data(), pa->grad.data(),
                                          src_shape, perm, /*inverse=*/true);
                           });
  permute_copy(a.data(), out.data(), src_shape, perm, /*inverse=*/false);
  return out;
}

Tensor select_dim1(const Tensor& x, std::int64_t index) {
  if (x.dim() != 3) {
    throw ShapeError("select_dim1: expected 3D, got " + shape_to_string(x.shape()));
  }
  const std::int64_t b = x.size(0), t = x.size(1), h = x.size(2);
  if (index < 0 || index >= t) {
    throw ShapeError("select_dim1: index " + std::to_string(index) + " out of [0," +
                     std::to_string(t) + ")");
  }
  TensorImpl* px = x.impl().get();
  Tensor out = make_result({b, h}, {x.impl()},
                           [px, b, t, h, index](const TensorImpl& self) {
                             for (std::int64_t i = 0; i < b; ++i) {
                               float* g = px->grad.data() + (i * t + index) * h;
                               const float* s = self.grad.data() + i * h;
                               for (std::int64_t j = 0; j < h; ++j) g[j] += s[j];
                             }
                           });
  for (std::int64_t i = 0; i < b; ++i) {
    const float* src = x.data() + (i * t + index) * h;
    float* dst = out.data() + i * h;
    std::copy(src, src + h, dst);
  }
  return out;
}

Tensor slice_cols(const Tensor& x, std::int64_t start, std::int64_t len) {
  if (x.dim() != 2) {
    throw ShapeError("slice_cols: expected 2D, got " + shape_to_string(x.shape()));
  }
  const std::int64_t m = x.size(0), n = x.size(1);
  if (start < 0 || len <= 0 || start + len > n) {
    throw ShapeError("slice_cols: range [" + std::to_string(start) + ", " +
                     std::to_string(start + len) + ") out of " + std::to_string(n));
  }
  TensorImpl* px = x.impl().get();
  Tensor out = make_result({m, len}, {x.impl()},
                           [px, m, n, start, len](const TensorImpl& self) {
                             for (std::int64_t i = 0; i < m; ++i) {
                               float* g = px->grad.data() + i * n + start;
                               const float* s = self.grad.data() + i * len;
                               for (std::int64_t j = 0; j < len; ++j) g[j] += s[j];
                             }
                           });
  for (std::int64_t i = 0; i < m; ++i) {
    const float* src = x.data() + i * n + start;
    std::copy(src, src + len, out.data() + i * len);
  }
  return out;
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw ShapeError("concat_cols: no inputs");
  const std::int64_t m = parts[0].size(0);
  std::int64_t total = 0;
  std::vector<ImplPtr> parents;
  parents.reserve(parts.size());
  for (const Tensor& p : parts) {
    if (p.dim() != 2 || p.size(0) != m) {
      throw ShapeError("concat_cols: inconsistent shapes");
    }
    total += p.size(1);
    parents.push_back(p.impl());
  }
  std::vector<TensorImpl*> raw;
  std::vector<std::int64_t> widths;
  raw.reserve(parts.size());
  for (const Tensor& p : parts) {
    raw.push_back(p.impl().get());
    widths.push_back(p.size(1));
  }
  Tensor out = make_result({m, total}, std::move(parents),
                           [raw, widths, m, total](const TensorImpl& self) {
                             std::int64_t off = 0;
                             for (std::size_t pi = 0; pi < raw.size(); ++pi) {
                               const std::int64_t w = widths[pi];
                               for (std::int64_t i = 0; i < m; ++i) {
                                 const float* s = self.grad.data() + i * total + off;
                                 float* g = raw[pi]->grad.data() + i * w;
                                 for (std::int64_t j = 0; j < w; ++j) g[j] += s[j];
                               }
                               off += w;
                             }
                           });
  std::int64_t off = 0;
  for (const Tensor& p : parts) {
    const std::int64_t w = p.size(1);
    for (std::int64_t i = 0; i < m; ++i) {
      std::copy(p.data() + i * w, p.data() + (i + 1) * w,
                out.data() + i * total + off);
    }
    off += w;
  }
  return out;
}

Tensor stack_dim1(const std::vector<Tensor>& steps) {
  if (steps.empty()) throw ShapeError("stack_dim1: no inputs");
  const std::int64_t b = steps[0].size(0), h = steps[0].size(1);
  const std::int64_t t = static_cast<std::int64_t>(steps.size());
  std::vector<ImplPtr> parents;
  std::vector<TensorImpl*> raw;
  parents.reserve(steps.size());
  raw.reserve(steps.size());
  for (const Tensor& s : steps) {
    if (s.dim() != 2 || s.size(0) != b || s.size(1) != h) {
      throw ShapeError("stack_dim1: inconsistent step shapes");
    }
    parents.push_back(s.impl());
    raw.push_back(s.impl().get());
  }
  Tensor out = make_result(
      {b, t, h}, std::move(parents), [raw, b, t, h](const TensorImpl& self) {
        // Steps are independent: step ti owns both its grad buffer and the
        // t-slice it reads, so parallelize over ti.
        const float* gall = self.grad.data();
        backend::parallel_rows(t, 2 * b * h, [&, gall](std::int64_t t0,
                                                       std::int64_t t1) {
          for (std::int64_t ti = t0; ti < t1; ++ti) {
            for (std::int64_t bi = 0; bi < b; ++bi) {
              const float* g = gall + (bi * t + ti) * h;
              float* pg = raw[ti]->grad.data() + bi * h;
              for (std::int64_t j = 0; j < h; ++j) pg[j] += g[j];
            }
          }
        });
      });
  {
    float* dst = out.data();
    backend::parallel_rows(t, 2 * b * h, [&, dst](std::int64_t t0,
                                                  std::int64_t t1) {
      for (std::int64_t ti = t0; ti < t1; ++ti) {
        for (std::int64_t bi = 0; bi < b; ++bi) {
          const float* src = steps[ti].data() + bi * h;
          std::copy(src, src + h, dst + (bi * t + ti) * h);
        }
      }
    });
  }
  return out;
}

Tensor gather_dim1(const Tensor& x, const std::vector<std::int64_t>& idx) {
  if (x.dim() != 3) {
    throw ShapeError("gather_dim1: expected 3D, got " + shape_to_string(x.shape()));
  }
  const std::int64_t b = x.size(0), t = x.size(1), h = x.size(2);
  if (static_cast<std::int64_t>(idx.size()) != b) {
    throw ShapeError("gather_dim1: " + std::to_string(idx.size()) +
                     " indices for batch " + std::to_string(b));
  }
  for (std::int64_t i : idx) {
    if (i < 0 || i >= t) {
      throw ShapeError("gather_dim1: index " + std::to_string(i) + " out of [0," +
                       std::to_string(t) + ")");
    }
  }
  TensorImpl* px = x.impl().get();
  auto idx_copy = std::make_shared<std::vector<std::int64_t>>(idx);
  Tensor out = make_result({b, h}, {x.impl()},
                           [px, idx_copy, t, h](const TensorImpl& self) {
                             for (std::size_t bi = 0; bi < idx_copy->size(); ++bi) {
                               const float* g = self.grad.data() + bi * h;
                               float* pg = px->grad.data() +
                                           (static_cast<std::int64_t>(bi) * t +
                                            (*idx_copy)[bi]) *
                                               h;
                               for (std::int64_t j = 0; j < h; ++j) pg[j] += g[j];
                             }
                           });
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const float* src = x.data() + (bi * t + idx[bi]) * h;
    std::copy(src, src + h, out.data() + bi * h);
  }
  return out;
}

}  // namespace cppflare::tensor
