#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace cppflare::optim {

Optimizer::Optimizer(std::vector<tensor::Tensor> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  if (params_.empty()) throw Error("Optimizer: no parameters");
  for (const auto& p : params_) {
    if (!p.requires_grad()) throw Error("Optimizer: parameter does not require grad");
  }
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

float Optimizer::grad_norm() const {
  double acc = 0.0;
  for (const auto& p : params_) {
    if (p.impl()->grad.empty()) continue;
    for (float g : p.impl()->grad) acc += static_cast<double>(g) * g;
  }
  return static_cast<float>(std::sqrt(acc));
}

float Optimizer::clip_grad_norm(float max_norm) {
  const float norm = grad_norm();
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : params_) {
      for (float& g : p.mutable_grad()) g *= scale;
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<tensor::Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_) {
      velocity_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    }
  }
}

void Sgd::step() {
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    if (p.impl()->grad.empty()) continue;  // unreached parameter this step
    float* w = p.data();
    const float* g = p.impl()->grad.data();
    const std::int64_t n = p.numel();
    if (momentum_ == 0.0f) {
      for (std::int64_t i = 0; i < n; ++i) w[i] -= lr_ * g[i];
    } else {
      float* vel = velocity_[pi].data();
      for (std::int64_t i = 0; i < n; ++i) {
        vel[i] = momentum_ * vel[i] + g[i];
        w[i] -= lr_ * vel[i];
      }
    }
  }
}

Adam::Adam(std::vector<tensor::Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
  }
}

namespace {

/// One step's scalars, copied out of the optimizer so the row loop reads
/// only locals and its restrict-qualified buffers.
struct AdamScalars {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

/// The Adam update of one parameter tensor. Distinct buffers and by-value
/// scalars let the loop vectorize; with contraction off (CMakeLists.txt)
/// each lane rounds the same operations in the same order as a scalar pass,
/// so the bits do not depend on the vector width.
template <bool kDecay>
void adam_row(float* __restrict w, const float* __restrict g, float* __restrict m,
              float* __restrict v, std::int64_t n, const AdamScalars s) {
  const float one_minus_beta1 = 1.0f - s.beta1;
  const float one_minus_beta2 = 1.0f - s.beta2;
  for (std::int64_t i = 0; i < n; ++i) {
    float grad = g[i];
    if constexpr (kDecay) grad += s.weight_decay * w[i];
    m[i] = s.beta1 * m[i] + one_minus_beta1 * grad;
    v[i] = s.beta2 * v[i] + one_minus_beta2 * grad * grad;
    const float mhat = m[i] / s.bc1;
    const float vhat = v[i] / s.bc2;
    w[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

}  // namespace

void Adam::step() {
  ++t_;
  const AdamScalars s{lr_, beta1_, beta2_, eps_, weight_decay_,
                      1.0f - std::pow(beta1_, static_cast<float>(t_)),
                      1.0f - std::pow(beta2_, static_cast<float>(t_))};
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    if (p.impl()->grad.empty()) continue;
    const auto row = weight_decay_ != 0.0f ? adam_row<true> : adam_row<false>;
    row(p.data(), p.impl()->grad.data(), m_[pi].data(), v_[pi].data(), p.numel(), s);
  }
}

StepDecayLr::StepDecayLr(float base_lr, std::int64_t step_size, float gamma)
    : base_lr_(base_lr), step_size_(step_size), gamma_(gamma) {
  if (step_size_ <= 0) throw Error("StepDecayLr: step_size must be positive");
}

float StepDecayLr::lr_at(std::int64_t step) const {
  return base_lr_ * std::pow(gamma_, static_cast<float>(step / step_size_));
}

WarmupLinearLr::WarmupLinearLr(float base_lr, std::int64_t warmup, std::int64_t total)
    : base_lr_(base_lr), warmup_(warmup), total_(total) {
  if (total_ <= warmup_) throw Error("WarmupLinearLr: total must exceed warmup");
}

float WarmupLinearLr::lr_at(std::int64_t step) const {
  if (step < warmup_) {
    return base_lr_ * static_cast<float>(step + 1) / static_cast<float>(warmup_);
  }
  const float remain = static_cast<float>(total_ - step) /
                       static_cast<float>(total_ - warmup_);
  return base_lr_ * std::max(0.0f, remain);
}

}  // namespace cppflare::optim
