#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"

namespace cppflare::tensor {

using detail::make_result;

namespace {

void check_2d(const char* op, const Tensor& t) {
  if (t.dim() != 2) {
    throw ShapeError(std::string(op) + ": expected 2D, got " +
                     shape_to_string(t.shape()));
  }
}

void check_3d(const char* op, const Tensor& t) {
  if (t.dim() != 3) {
    throw ShapeError(std::string(op) + ": expected 3D, got " +
                     shape_to_string(t.shape()));
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_2d("matmul", a);
  check_2d("matmul", b);
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) {
    throw ShapeError("matmul: " + shape_to_string(a.shape()) + " x " +
                     shape_to_string(b.shape()));
  }
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result({m, n}, {a.impl(), b.impl()},
                           [pa, pb, m, k, n](const TensorImpl& self) {
                             // dA = dC * B^T ; dB = A^T * dC
                             gemm_nt(self.grad.data(), pb->data.data(),
                                     pa->grad.data(), m, n, k);
                             gemm_tn(pa->data.data(), self.grad.data(),
                                     pb->grad.data(), m, k, n);
                           });
  gemm_nn(a.data(), b.data(), out.data(), m, k, n, GemmOut::kOverwrite);
  return out;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  check_2d("linear", x);
  check_2d("linear", w);
  const std::int64_t m = x.size(0), k = x.size(1), n = w.size(0);
  if (w.size(1) != k) {
    throw ShapeError("linear: x " + shape_to_string(x.shape()) + " vs w " +
                     shape_to_string(w.shape()));
  }
  const bool has_bias = b.defined();
  if (has_bias && (b.dim() != 1 || b.size(0) != n)) {
    throw ShapeError("linear: bias " + shape_to_string(b.shape()) + " vs out dim " +
                     std::to_string(n));
  }

  TensorImpl* px = x.impl().get();
  TensorImpl* pw = w.impl().get();
  TensorImpl* pbias = has_bias ? b.impl().get() : nullptr;
  std::vector<ImplPtr> parents = {x.impl(), w.impl()};
  if (has_bias) parents.push_back(b.impl());

  Tensor out = make_result(
      {m, n}, std::move(parents), [px, pw, pbias, m, k, n](const TensorImpl& self) {
        // y = x w^T + b:  dx = dy * w ; dw = dy^T * x ; db = column sums of dy
        gemm_nn(self.grad.data(), pw->data.data(), px->grad.data(), m, n, k);
        gemm_tn(self.grad.data(), px->data.data(), pw->grad.data(), m, n, k);
        if (pbias != nullptr) {
          // Rows all touch every bias column, so parallelize over columns:
          // each column sums its dy entries over i ascending, independent of
          // the chunking.
          const float* g = self.grad.data();
          float* db = pbias->grad.data();
          backend::parallel_rows(n, 2 * m, [=](std::int64_t j0, std::int64_t j1) {
            for (std::int64_t i = 0; i < m; ++i) {
              const float* grow = g + i * n;
              for (std::int64_t j = j0; j < j1; ++j) db[j] += grow[j];
            }
          });
        }
      });
  gemm_nt(x.data(), w.data(), out.data(), m, k, n, GemmOut::kOverwrite);
  if (has_bias) {
    float* dst = out.data();
    const float* bias = b.data();
    backend::parallel_rows(m, n, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        for (std::int64_t j = 0; j < n; ++j) dst[i * n + j] += bias[j];
      }
    });
  }
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  check_3d("bmm", a);
  check_3d("bmm", b);
  const std::int64_t batch = a.size(0), m = a.size(1), k = a.size(2), n = b.size(2);
  if (b.size(0) != batch || b.size(1) != k) {
    throw ShapeError("bmm: " + shape_to_string(a.shape()) + " x " +
                     shape_to_string(b.shape()));
  }
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result(
      {batch, m, n}, {a.impl(), b.impl()},
      [pa, pb, batch, m, k, n](const TensorImpl& self) {
        // Batch entries are independent; the nested GEMMs run serial-inline
        // inside the batch-parallel region (core/parallel.h), which is
        // covered by their determinism contract.
        const float* gall = self.grad.data();
        backend::parallel_rows(
            batch, 4 * m * k * n, [&, gall](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t bi = b0; bi < b1; ++bi) {
                const float* g = gall + bi * m * n;
                gemm_nt(g, pb->data.data() + bi * k * n,
                        pa->grad.data() + bi * m * k, m, n, k);
                gemm_tn(pa->data.data() + bi * m * k, g,
                        pb->grad.data() + bi * k * n, m, k, n);
              }
            });
      });
  {
    const float* pad = a.data();
    const float* pbd = b.data();
    float* pod = out.data();
    backend::parallel_rows(
        batch, 2 * m * k * n, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t bi = b0; bi < b1; ++bi) {
            gemm_nn(pad + bi * m * k, pbd + bi * k * n, pod + bi * m * n, m, k,
                    n, GemmOut::kOverwrite);
          }
        });
  }
  return out;
}

Tensor bmm_nt(const Tensor& a, const Tensor& b) {
  check_3d("bmm_nt", a);
  check_3d("bmm_nt", b);
  const std::int64_t batch = a.size(0), m = a.size(1), k = a.size(2), n = b.size(1);
  if (b.size(0) != batch || b.size(2) != k) {
    throw ShapeError("bmm_nt: " + shape_to_string(a.shape()) + " x " +
                     shape_to_string(b.shape()));
  }
  TensorImpl* pa = a.impl().get();
  TensorImpl* pb = b.impl().get();
  Tensor out = make_result(
      {batch, m, n}, {a.impl(), b.impl()},
      [pa, pb, batch, m, k, n](const TensorImpl& self) {
        // C = A * B^T:  dA = dC * B ; dB = dC^T * A
        const float* gall = self.grad.data();
        backend::parallel_rows(
            batch, 4 * m * k * n, [&, gall](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t bi = b0; bi < b1; ++bi) {
                const float* g = gall + bi * m * n;
                gemm_nn(g, pb->data.data() + bi * n * k,
                        pa->grad.data() + bi * m * k, m, n, k);
                gemm_tn(g, pa->data.data() + bi * m * k,
                        pb->grad.data() + bi * n * k, m, n, k);
              }
            });
      });
  {
    const float* pad = a.data();
    const float* pbd = b.data();
    float* pod = out.data();
    backend::parallel_rows(
        batch, 2 * m * k * n, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t bi = b0; bi < b1; ++bi) {
            gemm_nt(pad + bi * m * k, pbd + bi * n * k, pod + bi * m * n, m, k,
                    n, GemmOut::kOverwrite);
          }
        });
  }
  return out;
}

}  // namespace cppflare::tensor
