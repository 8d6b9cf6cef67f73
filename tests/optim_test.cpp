#include "optim/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/rng.h"
#include "tensor/ops.h"

namespace cppflare::optim {
namespace {

using tensor::Tensor;

/// Minimizes f(w) = ||w - target||^2 and returns the final distance.
template <typename MakeOpt>
float run_quadratic(MakeOpt make_opt, int steps) {
  Tensor w = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f}, true);
  Tensor target = Tensor::from_data({3}, {1.0f, 2.0f, -1.0f});
  auto opt = make_opt(std::vector<Tensor>{w});
  for (int i = 0; i < steps; ++i) {
    Tensor diff = tensor::sub(w, target);
    Tensor loss = tensor::sum_all(tensor::mul(diff, diff));
    opt->zero_grad();
    loss.backward();
    opt->step();
  }
  float dist = 0;
  for (int i = 0; i < 3; ++i) {
    const float d = w.data()[i] - target.data()[i];
    dist += d * d;
  }
  return dist;
}

TEST(Sgd, ConvergesOnQuadratic) {
  const float dist = run_quadratic(
      [](std::vector<Tensor> p) { return std::make_unique<Sgd>(p, 0.1f); }, 100);
  EXPECT_LT(dist, 1e-6f);
}

TEST(Sgd, MomentumConvergesFaster) {
  const float plain = run_quadratic(
      [](std::vector<Tensor> p) { return std::make_unique<Sgd>(p, 0.02f); }, 30);
  const float momentum = run_quadratic(
      [](std::vector<Tensor> p) { return std::make_unique<Sgd>(p, 0.02f, 0.9f); },
      30);
  EXPECT_LT(momentum, plain);
}

TEST(Adam, ConvergesOnQuadratic) {
  const float dist = run_quadratic(
      [](std::vector<Tensor> p) { return std::make_unique<Adam>(p, 0.3f); }, 200);
  EXPECT_LT(dist, 1e-3f);
}

TEST(Adam, StepCounterAdvances) {
  Tensor w = Tensor::from_data({1}, {1.0f}, true);
  Adam adam({w}, 0.1f);
  EXPECT_EQ(adam.steps_taken(), 0);
  tensor::sum_all(tensor::mul(w, w)).backward();
  adam.step();
  adam.step();
  EXPECT_EQ(adam.steps_taken(), 2);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Tensor w = Tensor::from_data({1}, {10.0f}, true);
  Adam adam({w}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  // With zero loss gradient the decay alone must move w toward zero.
  w.mutable_grad();  // allocate zero grad buffer
  for (int i = 0; i < 50; ++i) adam.step();
  EXPECT_LT(std::fabs(w.data()[0]), 10.0f);
}

TEST(Adam, VectorStepIsBitwiseTheScalarLoop) {
  // The update written out one element at a time, as Adam::step computed
  // it before it became a vectorized row loop. This file is compiled with
  // -ffp-contract=off (tests/CMakeLists.txt) like src/optim, so neither
  // side fuses a multiply-add.
  const float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  for (const float weight_decay : {0.0f, 0.01f}) {
    core::Rng rng(61);
    // Sizes with ragged vector tails.
    std::vector<Tensor> params = {Tensor::randn({1000}, rng, 0.0f, 1.0f, true),
                                  Tensor::randn({37}, rng, 0.0f, 1.0f, true)};
    std::vector<std::vector<float>> w, m, v;
    for (const Tensor& p : params) {
      w.push_back(p.vec());
      m.emplace_back(p.vec().size(), 0.0f);
      v.emplace_back(p.vec().size(), 0.0f);
    }
    Adam adam(params, lr, beta1, beta2, eps, weight_decay);
    for (int t = 1; t <= 5; ++t) {
      const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
      for (std::size_t pi = 0; pi < params.size(); ++pi) {
        std::vector<float>& g = params[pi].mutable_grad();
        for (float& x : g) x = static_cast<float>(rng.normal(0.0, 1.0));
        for (std::size_t i = 0; i < g.size(); ++i) {
          float grad = g[i];
          if (weight_decay != 0.0f) grad += weight_decay * w[pi][i];
          m[pi][i] = beta1 * m[pi][i] + (1.0f - beta1) * grad;
          v[pi][i] = beta2 * v[pi][i] + (1.0f - beta2) * grad * grad;
          const float mhat = m[pi][i] / bc1;
          const float vhat = v[pi][i] / bc2;
          w[pi][i] -= lr * mhat / (std::sqrt(vhat) + eps);
        }
      }
      adam.step();
      for (std::size_t pi = 0; pi < params.size(); ++pi) {
        EXPECT_EQ(std::memcmp(params[pi].data(), w[pi].data(), w[pi].size() * sizeof(float)),
                  0)
            << "weight_decay " << weight_decay << " step " << t << " param " << pi;
      }
    }
  }
}

TEST(Optimizer, RejectsEmptyOrNonGradParams) {
  EXPECT_THROW(Sgd({}, 0.1f), Error);
  Tensor w = Tensor::zeros({2}, /*requires_grad=*/false);
  EXPECT_THROW(Sgd({w}, 0.1f), Error);
}

TEST(Optimizer, GradNormAndClipping) {
  Tensor w = Tensor::from_data({2}, {0.0f, 0.0f}, true);
  Sgd sgd({w}, 0.1f);
  auto& g = w.mutable_grad();
  g[0] = 3.0f;
  g[1] = 4.0f;
  EXPECT_FLOAT_EQ(sgd.grad_norm(), 5.0f);
  const float pre = sgd.clip_grad_norm(1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(sgd.grad_norm(), 1.0f, 1e-5f);
  EXPECT_NEAR(w.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad()[1], 0.8f, 1e-5f);
}

TEST(Optimizer, ClipBelowThresholdNoop) {
  Tensor w = Tensor::from_data({1}, {0.0f}, true);
  Sgd sgd({w}, 0.1f);
  w.mutable_grad()[0] = 0.5f;
  sgd.clip_grad_norm(1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.5f);
}

TEST(Optimizer, SkipsParamsWithoutGradBuffers) {
  Tensor a = Tensor::from_data({1}, {1.0f}, true);
  Tensor b = Tensor::from_data({1}, {1.0f}, true);
  Sgd sgd({a, b}, 0.5f);
  // Only a participates in the loss.
  tensor::sum_all(tensor::mul(a, a)).backward();
  sgd.step();
  EXPECT_NE(a.data()[0], 1.0f);
  EXPECT_EQ(b.data()[0], 1.0f);
}

TEST(LrSchedules, Constant) {
  ConstantLr lr(0.01f);
  EXPECT_FLOAT_EQ(lr.lr_at(0), 0.01f);
  EXPECT_FLOAT_EQ(lr.lr_at(1000), 0.01f);
}

TEST(LrSchedules, StepDecay) {
  StepDecayLr lr(1.0f, 10, 0.5f);
  EXPECT_FLOAT_EQ(lr.lr_at(0), 1.0f);
  EXPECT_FLOAT_EQ(lr.lr_at(9), 1.0f);
  EXPECT_FLOAT_EQ(lr.lr_at(10), 0.5f);
  EXPECT_FLOAT_EQ(lr.lr_at(25), 0.25f);
  EXPECT_THROW(StepDecayLr(1.0f, 0, 0.5f), Error);
}

TEST(LrSchedules, WarmupLinear) {
  WarmupLinearLr lr(1.0f, 10, 110);
  EXPECT_NEAR(lr.lr_at(0), 0.1f, 1e-6f);
  EXPECT_NEAR(lr.lr_at(9), 1.0f, 1e-6f);
  EXPECT_NEAR(lr.lr_at(10), 1.0f, 1e-6f);
  EXPECT_NEAR(lr.lr_at(60), 0.5f, 1e-6f);
  EXPECT_NEAR(lr.lr_at(110), 0.0f, 1e-6f);
  EXPECT_NEAR(lr.lr_at(200), 0.0f, 1e-6f);
  EXPECT_THROW(WarmupLinearLr(1.0f, 10, 10), Error);
}

TEST(LrSchedules, ApplySetsOptimizerLr) {
  Tensor w = Tensor::from_data({1}, {1.0f}, true);
  Sgd sgd({w}, 1.0f);
  StepDecayLr schedule(1.0f, 5, 0.1f);
  schedule.apply(sgd, 12);
  EXPECT_NEAR(sgd.lr(), 0.01f, 1e-6f);
}

}  // namespace
}  // namespace cppflare::optim
