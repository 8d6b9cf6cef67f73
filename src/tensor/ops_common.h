// Internal helpers shared by the op implementation files. Not installed as
// public API.
#pragma once

#include <utility>

#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace cppflare::tensor::detail {

/// A node participates in autograd if it is a leaf that requires grad or an
/// interior node that recorded edges.
inline bool tracked(const ImplPtr& p) {
  return p->requires_grad || !p->parents.empty();
}

/// Allocates the result node for an op. If gradient recording is active and
/// any parent is tracked, attaches the parents and the backward closure;
/// otherwise the result is a plain constant.
///
/// Backward closures must reference parents through raw pointers captured at
/// construction; the recorded `parents` vector keeps them alive for as long
/// as the result exists, and untracked results never invoke the closure.
///
/// The data buffer is not zeroed (storage::acquire_for_overwrite): every op's
/// forward writes each output element, and the GEMM-fed ones run the
/// kernels' overwrite form.
inline Tensor make_result(Shape shape, std::vector<ImplPtr> parents, BackwardFn fn) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data =
      storage::acquire_for_overwrite(static_cast<std::size_t>(numel_of(impl->shape)));
  bool record = grad_enabled();
  if (record) {
    bool any = false;
    for (const ImplPtr& p : parents) any = any || tracked(p);
    record = any;
  }
  if (record) {
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(fn);
  }
  return Tensor(std::move(impl));
}

}  // namespace cppflare::tensor::detail
