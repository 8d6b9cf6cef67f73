#include <algorithm>
#include <cmath>

#include "core/bytes.h"
#include "core/keyed_stream.h"
#include "core/sha256.h"
#include "tensor/activation_kernels.h"
#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"

namespace cppflare::tensor {

using detail::make_result;

namespace {

// Rough scalar cost of one transcendental-bearing element; tuned only well
// enough that small activations stay serial and large ones chunk sensibly.
constexpr std::int64_t kTranscendentalWork = 8;

// Dropout mask words are generated per chunk of this many elements, on the
// stack.
constexpr std::int64_t kDropoutChunk = 1024;

/// One dropout call's mask: element i is kept iff word i of `stream` is at
/// least `threshold`. A pure function of (key, i), so any chunking of the
/// index range, and the backward pass, regenerate the same mask.
struct DropoutMask {
  core::KeyedStream stream;
  std::uint32_t threshold;
  float scale;

  /// Calls fn(first, count, factor) over [i0, i1) in stack chunks, where
  /// factor[j] is element first + j's mask value: `scale` if kept, else 0.
  template <typename Fn>
  void for_each_chunk(std::int64_t i0, std::int64_t i1, Fn&& fn) const {
    // Locals, so the select below is a vector compare-and-blend.
    const std::uint32_t t = threshold;
    const float keep = scale;
    std::uint32_t words[kDropoutChunk];
    float factor[kDropoutChunk];
    for (std::int64_t first = i0; first < i1; first += kDropoutChunk) {
      const std::int64_t count = std::min(kDropoutChunk, i1 - first);
      // R11-exempt: KeyedStream::read returns void (Wal::read shares the name)
      stream.read(static_cast<std::uint64_t>(first), static_cast<std::size_t>(count),
                  words);
      for (std::int64_t j = 0; j < count; ++j) factor[j] = words[j] >= t ? keep : 0.0f;
      fn(first, count, static_cast<const float*>(factor));
    }
  }
};

/// The mask key schedule: one engine word from the caller's generator keys
/// ChaCha20 with SHA-256("dropout" ‖ le64(word)) and a zero nonce.
DropoutMask dropout_mask(float p, core::Rng& rng) {
  core::ByteWriter seed;
  seed.write_raw(reinterpret_cast<const std::uint8_t*>("dropout"), 7);
  seed.write_u64(rng.next_u64());
  const core::Digest key = core::Sha256::hash(seed.bytes().data(), seed.bytes().size());
  // t = round(p * 2^32) < 2^32 for p < 1; an element survives with
  // probability exactly 1 - t / 2^32.
  const auto threshold =
      static_cast<std::uint32_t>(std::llround(static_cast<double>(p) * 4294967296.0));
  return {core::KeyedStream(key, core::KeyedStream::Nonce{}), threshold,
          1.0f / (1.0f - p)};
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape("add", a, b);
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result(
      a.shape(), {a.impl(), b.impl()}, [pa, pb](const TensorImpl& self) {
        const float* g = self.grad.data();
        float* ga = pa->grad.data();
        float* gb = pb->grad.data();
        const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
        backend::parallel_rows(n, 2, [=](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            ga[i] += g[i];
            gb[i] += g[i];
          }
        });
      });
  const float* da = a.data();
  const float* db = b.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] + db[i];
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape("sub", a, b);
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result(
      a.shape(), {a.impl(), b.impl()}, [pa, pb](const TensorImpl& self) {
        const float* g = self.grad.data();
        float* ga = pa->grad.data();
        float* gb = pb->grad.data();
        const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
        backend::parallel_rows(n, 2, [=](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            ga[i] += g[i];
            gb[i] -= g[i];
          }
        });
      });
  const float* da = a.data();
  const float* db = b.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] - db[i];
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape("mul", a, b);
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result(
      a.shape(), {a.impl(), b.impl()}, [pa, pb](const TensorImpl& self) {
        const float* g = self.grad.data();
        const float* xa = pa->data.data();
        const float* xb = pb->data.data();
        float* ga = pa->grad.data();
        float* gb = pb->grad.data();
        const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
        backend::parallel_rows(n, 4, [=](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            ga[i] += g[i] * xb[i];
            gb[i] += g[i] * xa[i];
          }
        });
      });
  const float* da = a.data();
  const float* db = b.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] * db[i];
  });
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(a.shape(), {a.impl()}, [pa](const TensorImpl& self) {
    const float* g = self.grad.data();
    float* ga = pa->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
    backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) ga[i] += g[i];
    });
  });
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] + s;
  });
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(a.shape(), {a.impl()}, [pa, s](const TensorImpl& self) {
    const float* g = self.grad.data();
    float* ga = pa->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
    backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) ga[i] += g[i] * s;
    });
  });
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] * s;
  });
  return out;
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  if (bias.dim() != 1 || x.dim() < 1 || x.size(-1) != bias.size(0)) {
    throw ShapeError("add_bias: x " + shape_to_string(x.shape()) + " vs bias " +
                     shape_to_string(bias.shape()));
  }
  const std::int64_t n = bias.size(0);
  const std::int64_t rows = x.numel() / n;
  TensorImpl* px = x.impl().get();
  TensorImpl* pb = bias.impl().get();
  Tensor out = make_result(
      x.shape(), {x.impl(), bias.impl()},
      [px, pb, rows, n](const TensorImpl& self) {
        // dx is row-disjoint; db sums over rows, so it goes column-parallel
        // with rows consumed in ascending order per column.
        const float* g = self.grad.data();
        float* gx = px->grad.data();
        float* gb = pb->grad.data();
        backend::parallel_rows(rows, n, [=](std::int64_t r0, std::int64_t r1) {
          for (std::int64_t r = r0; r < r1; ++r) {
            const float* grow = g + r * n;
            float* gxrow = gx + r * n;
            for (std::int64_t j = 0; j < n; ++j) gxrow[j] += grow[j];
          }
        });
        backend::parallel_rows(n, rows, [=](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* grow = g + r * n;
            for (std::int64_t j = j0; j < j1; ++j) gb[j] += grow[j];
          }
        });
      });
  const float* dx = x.data();
  const float* db = bias.data();
  float* dst = out.data();
  backend::parallel_rows(rows, n, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t j = 0; j < n; ++j) dst[r * n + j] = dx[r * n + j] + db[j];
    }
  });
  return out;
}

Tensor relu(const Tensor& a) {
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(a.shape(), {a.impl()}, [pa](const TensorImpl& self) {
    const float* g = self.grad.data();
    const float* xa = pa->data.data();
    float* ga = pa->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
    backend::parallel_rows(n, 2, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        if (xa[i] > 0.0f) ga[i] += g[i];
      }
    });
  });
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), 1, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) dst[i] = da[i] > 0.0f ? da[i] : 0.0f;
  });
  return out;
}

Tensor tanh_op(const Tensor& a) {
  Tensor out = make_result(a.shape(), {a.impl()}, nullptr);
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), kTranscendentalWork,
                         [=](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                             dst[i] = std::tanh(da[i]);
                           }
                         });
  // dtanh = 1 - y^2; uses the result values, available through `self`.
  TensorImpl* pa = a.impl().get();
  if (out.impl()->parents.size() == 1) {
    out.impl()->backward_fn = [pa](const TensorImpl& self) {
      const float* y = self.data.data();
      const float* g = self.grad.data();
      float* ga = pa->grad.data();
      const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
      backend::parallel_rows(n, 4, [=](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          ga[i] += g[i] * (1.0f - y[i] * y[i]);
        }
      });
    };
  }
  return out;
}

Tensor sigmoid(const Tensor& a) {
  Tensor out = make_result(a.shape(), {a.impl()}, nullptr);
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), kTranscendentalWork,
                         [=](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                             dst[i] = 1.0f / (1.0f + std::exp(-da[i]));
                           }
                         });
  TensorImpl* pa = a.impl().get();
  if (out.impl()->parents.size() == 1) {
    out.impl()->backward_fn = [pa](const TensorImpl& self) {
      const float* y = self.data.data();
      const float* g = self.grad.data();
      float* ga = pa->grad.data();
      const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
      backend::parallel_rows(n, 4, [=](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          ga[i] += g[i] * y[i] * (1.0f - y[i]);
        }
      });
    };
  }
  return out;
}

Tensor gelu(const Tensor& a) {
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(a.shape(), {a.impl()}, [pa](const TensorImpl& self) {
    const float* xa = pa->data.data();
    const float* g = self.grad.data();
    float* ga = pa->grad.data();
    const GemmKernel kernel = gemm_active_kernel();
    backend::parallel_rows(static_cast<std::int64_t>(self.grad.size()),
                           2 * kTranscendentalWork,
                           [=](std::int64_t i0, std::int64_t i1) {
                             gelu_rows(kernel, xa + i0, g + i0, ga + i0,
                                       static_cast<std::size_t>(i1 - i0));
                           });
  });
  const float* da = a.data();
  float* dst = out.data();
  const GemmKernel kernel = gemm_active_kernel();
  backend::parallel_rows(out.numel(), kTranscendentalWork,
                         [=](std::int64_t i0, std::int64_t i1) {
                           gelu_rows(kernel, da + i0, nullptr, dst + i0,
                                     static_cast<std::size_t>(i1 - i0));
                         });
  return out;
}

Tensor dropout(const Tensor& a, float p, core::Rng& rng) {
  if (p <= 0.0f) return mul_scalar(a, 1.0f);  // keeps graph shape uniform
  if (p >= 1.0f) throw Error("dropout: p must be < 1");
  // No mask tensor: forward and backward each regenerate the mask words in
  // their own chunks, so nothing is stored and nothing runs serially.
  const DropoutMask mask = dropout_mask(p, rng);
  constexpr std::int64_t kWork = 4;  // a keystream word plus a multiply
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result(
      a.shape(), {a.impl()}, [pa, mask](const TensorImpl& self) {
        const float* g = self.grad.data();
        float* ga = pa->grad.data();
        const std::int64_t n = static_cast<std::int64_t>(self.grad.size());
        backend::parallel_rows(n, kWork, [=, &mask](std::int64_t i0, std::int64_t i1) {
          mask.for_each_chunk(i0, i1, [=](std::int64_t first, std::int64_t count,
                                          const float* factor) {
            for (std::int64_t j = 0; j < count; ++j) {
              ga[first + j] += g[first + j] * factor[j];
            }
          });
        });
      });
  const float* da = a.data();
  float* dst = out.data();
  backend::parallel_rows(out.numel(), kWork, [=, &mask](std::int64_t i0, std::int64_t i1) {
    mask.for_each_chunk(i0, i1, [=](std::int64_t first, std::int64_t count,
                                    const float* factor) {
      for (std::int64_t j = 0; j < count; ++j) dst[first + j] = da[first + j] * factor[j];
    });
  });
  return out;
}

Tensor sum_all(const Tensor& a) {
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result({}, {a.impl()}, [pa](const TensorImpl& self) {
    const float g = self.grad[0];
    float* ga = pa->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(pa->grad.size());
    backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) ga[i] += g;
    });
  });
  // Reduction: per-chunk double partials combined in chunk order (the
  // summation tree depends only on the size — see backend.h).
  const float* da = a.data();
  const std::int64_t n = a.numel();
  std::vector<double> partials(backend::chunk_count(n, 1), 0.0);
  double* parts = partials.data();
  backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
    double local = 0.0;
    for (std::int64_t i = i0; i < i1; ++i) local += da[i];
    parts[backend::chunk_index(n, 1, i0)] = local;
  });
  double acc = 0.0;
  for (double p : partials) acc += p;
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor mean_all(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  TensorImpl* pa = a.impl().get();
  Tensor out = make_result({}, {a.impl()}, [pa, inv](const TensorImpl& self) {
    const float g = self.grad[0] * inv;
    float* ga = pa->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(pa->grad.size());
    backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) ga[i] += g;
    });
  });
  const float* da = a.data();
  const std::int64_t n = a.numel();
  std::vector<double> partials(backend::chunk_count(n, 1), 0.0);
  double* parts = partials.data();
  backend::parallel_rows(n, 1, [=](std::int64_t i0, std::int64_t i1) {
    double local = 0.0;
    for (std::int64_t i = i0; i < i1; ++i) local += da[i];
    parts[backend::chunk_index(n, 1, i0)] = local;
  });
  double acc = 0.0;
  for (double p : partials) acc += p;
  out.data()[0] = static_cast<float>(acc) * inv;
  return out;
}

}  // namespace cppflare::tensor
