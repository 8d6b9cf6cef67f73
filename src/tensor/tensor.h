// Dense float32 tensors with reverse-mode automatic differentiation.
//
// Design:
//  * `Tensor` is a cheap value handle over a shared `TensorImpl` holding a
//    contiguous row-major buffer plus (optionally) a gradient buffer and the
//    autograd edge that produced it.
//  * Ops (see ops.h) are free functions that compute the forward result and,
//    when gradients are enabled and any input requires them, record a
//    backward closure on the result node.
//  * `Tensor::backward()` runs a topological sweep from the calling node and
//    accumulates gradients into every reachable node with requires_grad.
//
// The engine is CPU-only and single-precision; this is the substitute for
// the PyTorch+CUDA substrate the paper runs on (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace cppflare::tensor {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (product of dims; empty shape = 1,
/// representing a scalar).
std::int64_t numel_of(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

struct TensorImpl;
using ImplPtr = std::shared_ptr<TensorImpl>;

/// Backward closure: reads `self.grad`, accumulates into parents' grads.
using BackwardFn = std::function<void(const TensorImpl& self)>;

struct TensorImpl {
  // `data` and `grad` come from, and return to, the per-thread storage
  // cache (tensor/storage.h).
  std::vector<float> data;
  Shape shape;
  bool requires_grad = false;

  // Autograd state. `grad` is lazily allocated by ensure_grad(). Parents
  // are kept alive by the child so a loss value retains its whole graph.
  std::vector<float> grad;
  BackwardFn backward_fn;
  std::vector<ImplPtr> parents;

  TensorImpl() = default;
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
  ~TensorImpl();

  std::int64_t numel() const { return numel_of(shape); }
  /// Allocates a zeroed grad buffer unless one of the right size exists.
  void ensure_grad();
  /// Drops the grad buffer back to the storage cache.
  void release_grad();
};

/// RAII guard disabling gradient recording on this thread (evaluation mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True if this thread currently records autograd edges.
bool grad_enabled();

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(ImplPtr impl) : impl_(std::move(impl)) {}

  // ---- factories -------------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_data(Shape shape, std::vector<float> values,
                          bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// i.i.d. normal entries; used by weight initializers.
  static Tensor randn(Shape shape, core::Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f, bool requires_grad = false);

  // ---- introspection ---------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  std::int64_t dim() const { return static_cast<std::int64_t>(impl_->shape.size()); }
  std::int64_t size(std::int64_t axis) const;
  std::int64_t numel() const { return impl_->numel(); }
  bool requires_grad() const { return impl_->requires_grad; }

  float* data() { return impl_->data.data(); }
  const float* data() const { return impl_->data.data(); }
  std::vector<float>& vec() { return impl_->data; }
  const std::vector<float>& vec() const { return impl_->data; }

  /// Gradient buffer; throws if backward has not populated it.
  const std::vector<float>& grad() const;
  std::vector<float>& mutable_grad();

  /// Scalar accessors (tensor must have exactly one element).
  float item() const;

  const ImplPtr& impl() const { return impl_; }

  // ---- autograd --------------------------------------------------------
  /// Runs reverse-mode differentiation seeded with d(self)/d(self) = 1.
  /// `self` must be a scalar (numel == 1). Only nodes that require grad
  /// keep their gradient afterwards: every other node's grad buffer is
  /// released as soon as the sweep is past it.
  void backward();

  /// Clears this node's gradient buffer (used on parameters between steps).
  void zero_grad();

 private:
  ImplPtr impl_;
};

/// Creates a detached constant node sharing no autograd history but copying
/// the data buffer of `t`.
Tensor detach_copy(const Tensor& t);

/// Asserts two shapes are identical; throws ShapeError naming `op`.
void check_same_shape(const char* op, const Tensor& a, const Tensor& b);

}  // namespace cppflare::tensor
