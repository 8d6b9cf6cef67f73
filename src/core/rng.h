// Deterministic random number generation.
//
// Every stochastic component (data synthesis, weight init, dropout, MLM
// masking, client sampling) draws from an explicitly seeded `Rng` so that
// experiments are reproducible run-to-run. There is no hidden global state:
// callers own their generators and pass them down (Core Guidelines I.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace cppflare::core {

/// A seeded PRNG with the handful of draw helpers the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled to `stddev` around `mean`.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// One raw 64-bit word of the engine, e.g. to seed a keyed stream.
  std::uint64_t next_u64() { return engine_(); }

  /// True with probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  std::size_t categorical(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
    return dist(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// Derives an independent child generator; useful for giving each client
  /// or worker its own stream while remaining reproducible from one seed.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cppflare::core
