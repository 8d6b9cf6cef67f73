#include "tensor/tensor.h"

#include <sstream>
#include <unordered_set>

#include "tensor/storage.h"

namespace cppflare::tensor {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

std::int64_t numel_of(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool grad_enabled() { return g_grad_enabled; }

TensorImpl::~TensorImpl() {
  storage::release(data);
  storage::release(grad);
}

void TensorImpl::ensure_grad() {
  if (grad.size() == data.size()) return;
  storage::release(grad);
  grad = storage::acquire(data.size());
}

void TensorImpl::release_grad() { storage::release(grad); }

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = storage::acquire(static_cast<std::size_t>(numel_of(impl->shape)));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (float& x : t.vec()) x = value;
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> values, bool requires_grad) {
  if (numel_of(shape) != static_cast<std::int64_t>(values.size())) {
    throw ShapeError("from_data: shape " + shape_to_string(shape) + " needs " +
                     std::to_string(numel_of(shape)) + " values, got " +
                     std::to_string(values.size()));
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_data({}, {value}, requires_grad);
}

Tensor Tensor::randn(Shape shape, core::Rng& rng, float mean, float stddev,
                     bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (float& x : t.vec()) x = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

std::int64_t Tensor::size(std::int64_t axis) const {
  const auto& s = impl_->shape;
  if (axis < 0) axis += static_cast<std::int64_t>(s.size());
  if (axis < 0 || axis >= static_cast<std::int64_t>(s.size())) {
    throw ShapeError("size(): axis " + std::to_string(axis) + " out of range for " +
                     shape_to_string(s));
  }
  return s[static_cast<std::size_t>(axis)];
}

const std::vector<float>& Tensor::grad() const {
  if (impl_->grad.size() != impl_->data.size()) {
    throw Error("grad accessed before backward populated it");
  }
  return impl_->grad;
}

std::vector<float>& Tensor::mutable_grad() {
  impl_->ensure_grad();
  return impl_->grad;
}

float Tensor::item() const {
  if (numel() != 1) {
    throw ShapeError("item() on tensor with " + std::to_string(numel()) + " elements");
  }
  return impl_->data[0];
}

void Tensor::backward() {
  if (numel() != 1) {
    throw ShapeError("backward() requires a scalar loss, got shape " +
                     shape_to_string(shape()));
  }
  // Topological order via iterative post-order DFS over parent edges.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      for (const ImplPtr& parent : node->parents) parent->ensure_grad();
      node->backward_fn(*node);
    }
    // Every consumer of this node ran before it in reverse topological
    // order, so nothing reads or writes its gradient from here on. The
    // freed buffer is what the next ensure_grad of the same size reuses.
    if (!node->requires_grad) node->release_grad();
  }
}

void Tensor::zero_grad() {
  if (!impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

Tensor detach_copy(const Tensor& t) {
  return Tensor::from_data(t.shape(), t.vec(), false);
}

void check_same_shape(const char* op, const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw ShapeError(std::string(op) + ": shapes differ, " +
                     shape_to_string(a.shape()) + " vs " + shape_to_string(b.shape()));
  }
}

}  // namespace cppflare::tensor
