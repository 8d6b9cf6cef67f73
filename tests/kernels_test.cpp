#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/activation_kernels.h"
#include "tensor/gemm_kernel.h"

namespace cppflare::tensor {
namespace {

// Reference triple-loop implementations.
void ref_nn(const std::vector<float>& a, const std::vector<float>& b,
            std::vector<float>& c, int m, int k, int n) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      for (int kk = 0; kk < k; ++kk) c[i * n + j] += a[i * k + kk] * b[kk * n + j];
}

void ref_nt(const std::vector<float>& a, const std::vector<float>& b,
            std::vector<float>& c, int m, int k, int n) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      for (int kk = 0; kk < k; ++kk) c[i * n + j] += a[i * k + kk] * b[j * k + kk];
}

void ref_tn(const std::vector<float>& a, const std::vector<float>& b,
            std::vector<float>& c, int m, int k, int n) {
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) c[kk * n + j] += a[i * k + kk] * b[i * n + j];
}

struct GemmCase {
  int m, k, n;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  core::Rng rng(m * 10007 + k * 101 + n);
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f), ref(m * n, 0.0f);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  gemm_nn(a.data(), b.data(), c.data(), m, k, n);
  ref_nn(a, b, ref, m, k, n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f) << i;
}

TEST_P(GemmParamTest, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  core::Rng rng(m * 7 + k * 11 + n * 13);
  std::vector<float> a(m * k), b(n * k), c(m * n, 0.0f), ref(m * n, 0.0f);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  gemm_nt(a.data(), b.data(), c.data(), m, k, n);
  ref_nt(a, b, ref, m, k, n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f) << i;
}

TEST_P(GemmParamTest, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  core::Rng rng(m * 3 + k * 5 + n * 17);
  std::vector<float> a(m * k), b(m * n), c(k * n, 0.0f), ref(k * n, 0.0f);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  gemm_tn(a.data(), b.data(), c.data(), m, k, n);
  ref_tn(a, b, ref, m, k, n);
  for (int i = 0; i < k * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{2, 3, 4}, GemmCase{5, 7, 3},
                      GemmCase{8, 8, 8}, GemmCase{16, 32, 16}, GemmCase{3, 1, 9},
                      GemmCase{1, 64, 1}, GemmCase{33, 17, 5},
                      // n not divisible by 4 exercises the gemm_nt tail.
                      GemmCase{4, 16, 6}, GemmCase{4, 16, 7}),
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      return std::to_string(info.param.m) + "x" + std::to_string(info.param.k) +
             "x" + std::to_string(info.param.n);
    });

TEST(GemmAccumulate, AddsToExistingValues) {
  std::vector<float> a = {1, 0, 0, 1};  // 2x2 identity
  std::vector<float> b = {5, 6, 7, 8};
  std::vector<float> c = {100, 100, 100, 100};
  gemm_nn(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 105);
  EXPECT_FLOAT_EQ(c[1], 106);
  EXPECT_FLOAT_EQ(c[2], 107);
  EXPECT_FLOAT_EQ(c[3], 108);
}

// ---- exactness: one fma chain per element, at every tier ------------------

enum class Form { kNN, kNT, kTN };

const char* form_name(Form form) {
  return form == Form::kNN ? "nn" : form == Form::kNT ? "nt" : "tn";
}

/// Exact in float: signed 24-bit integers (splitmix64) scaled by a power
/// of two, so every build draws the same inputs, and their products still
/// round.
std::vector<float> exact_values(std::size_t count, std::uint64_t& state) {
  std::vector<float> v(count);
  for (float& x : v) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    x = static_cast<float>(static_cast<std::int32_t>(z >> 40) - (1 << 23)) * 0x1p-21f;
  }
  return v;
}

/// The contract itself: c = fma(op(A)(i,p), op(B)(p,j), c) for p ascending.
void oracle(Form form, const std::vector<float>& a, const std::vector<float>& b,
            std::vector<float>& c, int m, int k, int n) {
  // op(A)(i, p) = a[i * a_row + p * a_col], op(B)(p, j) = b[p * b_row + j * b_col].
  const int rows = form == Form::kTN ? k : m;
  const int depth = form == Form::kTN ? m : k;
  const int a_row = form == Form::kTN ? 1 : k, a_col = form == Form::kTN ? k : 1;
  const int b_row = form == Form::kNT ? 1 : n, b_col = form == Form::kNT ? k : 1;
  for (int i = 0; i < rows; ++i) {
    const float* ai = a.data() + i * a_row;
    for (int j = 0; j < n; ++j) {
      const float* bj = b.data() + j * b_col;
      float acc = c[i * n + j];
      for (int p = 0; p < depth; ++p) acc = std::fma(ai[p * a_col], bj[p * b_row], acc);
      c[i * n + j] = acc;
    }
  }
}

void run_gemm(GemmKernel kernel, Form form, const std::vector<float>& a,
              const std::vector<float>& b, std::vector<float>& c, int m, int k,
              int n, GemmOut out = GemmOut::kAccumulate) {
  if (form == Form::kNN) gemm_nn_with(kernel, a.data(), b.data(), c.data(), m, k, n, out);
  if (form == Form::kNT) gemm_nt_with(kernel, a.data(), b.data(), c.data(), m, k, n, out);
  if (form == Form::kTN) gemm_tn_with(kernel, a.data(), b.data(), c.data(), m, k, n, out);
}

/// Inputs for one product; C starts non-zero, so accumulation is covered.
struct Operands {
  std::vector<float> a, b, c;
};

Operands operands(Form form, int m, int k, int n) {
  std::uint64_t state = static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n);
  Operands o;
  o.a = exact_values(static_cast<std::size_t>(m * k), state);
  o.b = exact_values(static_cast<std::size_t>(form == Form::kTN ? m * n : k * n), state);
  o.c = exact_values(static_cast<std::size_t>(form == Form::kTN ? k * n : m * n), state);
  return o;
}

/// caffe2-style exact element equality (SNIPPETS.md assertsTensorEquals),
/// reporting only the first mismatch.
void expect_bits_equal(const std::vector<float>& got, const std::vector<float>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i])) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i] << ", want "
                    << want[i];
      return;
    }
  }
}

const std::vector<int>& exact_dims() {
  static const std::vector<int> dims = {1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 22, 32, 33, 132, 512};
  return dims;
}

/// Every (m, k, n) from exact_dims() with at most one dimension above 33.
std::vector<GemmCase> exact_cases() {
  std::vector<GemmCase> cases;
  for (int m : exact_dims()) {
    for (int k : exact_dims()) {
      for (int n : exact_dims()) {
        if ((m > 33) + (k > 33) + (n > 33) <= 1) cases.push_back({m, k, n});
      }
    }
  }
  return cases;
}

struct TierCase {
  GemmKernel kernel;
  std::size_t budget;
};

class GemmTierTest : public ::testing::TestWithParam<TierCase> {
 protected:
  void SetUp() override {
    if (!gemm_kernel_supported(GetParam().kernel)) {
      GTEST_SKIP() << gemm_kernel_name(GetParam().kernel) << " not supported here";
    }
    core::set_compute_threads(GetParam().budget);
  }
};

TEST_P(GemmTierTest, EveryFormMatchesFmaOracleBitwise) {
  for (const Form form : {Form::kNN, Form::kNT, Form::kTN}) {
    for (const auto& [m, k, n] : exact_cases()) {
      Operands o = operands(form, m, k, n);
      std::vector<float> want = o.c;
      oracle(form, o.a, o.b, want, m, k, n);
      run_gemm(GetParam().kernel, form, o.a, o.b, o.c, m, k, n);
      expect_bits_equal(o.c, want, std::string(form_name(form)) + " " +
                                       std::to_string(m) + "x" + std::to_string(k) +
                                       "x" + std::to_string(n));
      if (HasFailure()) return;
    }
  }
}

TEST_P(GemmTierTest, OverwriteEqualsAccumulatingIntoZeroBitwise) {
  // The overwrite form never reads C: NaN in C must not reach the output,
  // and the bits must be those of the chain started from a zeroed C.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Form form : {Form::kNN, Form::kNT, Form::kTN}) {
    for (const auto& [m, k, n] : exact_cases()) {
      Operands o = operands(form, m, k, n);
      std::vector<float> want(o.c.size(), 0.0f);
      oracle(form, o.a, o.b, want, m, k, n);
      std::fill(o.c.begin(), o.c.end(), nan);
      run_gemm(GetParam().kernel, form, o.a, o.b, o.c, m, k, n, GemmOut::kOverwrite);
      expect_bits_equal(o.c, want, std::string("overwrite ") + form_name(form) + " " +
                                       std::to_string(m) + "x" + std::to_string(k) +
                                       "x" + std::to_string(n));
      if (HasFailure()) return;
    }
    // An empty reduction (k = 0; m = 0 for tn) overwrites C with the empty sum.
    std::vector<float> c(12, nan);
    const bool tn = form == Form::kTN;
    run_gemm(GetParam().kernel, form, {}, {}, c, tn ? 0 : 3, tn ? 3 : 0, 4, GemmOut::kOverwrite);
    expect_bits_equal(c, std::vector<float>(12, 0.0f), std::string("k=0 ") + form_name(form));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, GemmTierTest,
    ::testing::Values(TierCase{GemmKernel::kScalar, 1}, TierCase{GemmKernel::kScalar, 4},
                      TierCase{GemmKernel::kAvx2, 1}, TierCase{GemmKernel::kAvx2, 4}),
    [](const ::testing::TestParamInfo<TierCase>& info) {
      return std::string(info.param.kernel == GemmKernel::kAvx2 ? "Avx2" : "Scalar") +
             "Budget" + std::to_string(info.param.budget);
    });

// The loops gemm_nn and gemm_tn ran before the register tile, as the
// release build compiled them: `crow[j] += aik * brow[j]` contracted to one
// fma. Their per-element chain is the contract's, so the tile reproduces
// their bits exactly.
void parent_nn(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int k0 = 0; k0 < k; k0 += 128) {
    const int k1 = std::min(k, k0 + 128);
    for (int i = 0; i < m; ++i) {
      for (int kk = k0; kk < k1; ++kk) {
        for (int j = 0; j < n; ++j) c[i * n + j] = std::fma(a[i * k + kk], b[kk * n + j], c[i * n + j]);
      }
    }
  }
}

void parent_tn(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int m0 = 0; m0 < m; m0 += 128) {
    const int m1 = std::min(m, m0 + 128);
    for (int i = m0; i < m1; ++i) {
      for (int kk = 0; kk < k; ++kk) {
        for (int j = 0; j < n; ++j) c[kk * n + j] = std::fma(a[i * k + kk], b[i * n + j], c[kk * n + j]);
      }
    }
  }
}

TEST(GemmExact, NnAndTnMatchTheParentLoopsBitwise) {
  for (const auto& [m, k, n] : exact_cases()) {
    Operands o = operands(Form::kNN, m, k, n);
    std::vector<float> want = o.c;
    parent_nn(o.a.data(), o.b.data(), want.data(), m, k, n);
    gemm_nn(o.a.data(), o.b.data(), o.c.data(), m, k, n);
    expect_bits_equal(o.c, want, "nn");

    o = operands(Form::kTN, m, k, n);
    want = o.c;
    parent_tn(o.a.data(), o.b.data(), want.data(), m, k, n);
    gemm_tn(o.a.data(), o.b.data(), o.c.data(), m, k, n);
    expect_bits_equal(o.c, want, "tn");
    if (HasFailure()) return;
  }
}

/// FNV-1a over the output bytes, as hex.
std::string fingerprint(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float v : values) {
    std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte, bits >>= 8) {
      h = (h ^ (bits & 0xffu)) * 0x100000001b3ull;
    }
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(h));
  return out;
}

TEST(GemmExact, GoldenBitsAreStable) {
  // Pins the output bits of fixed-seed 37x29x23 products, accumulated into
  // a non-zero C, in every form and at every tier. Release and sanitizer
  // builds must agree: fma rounds once whatever the optimization level.
  const std::pair<Form, const char*> golden[] = {
      {Form::kNN, "0bced797c0e4a217"}, {Form::kNT, "190714399abe66fa"}, {Form::kTN, "f42a93e01b0e9996"}};
  for (const GemmKernel kernel : kAllGemmKernels) {
    if (!gemm_kernel_supported(kernel)) continue;
    for (const auto& [form, want] : golden) {
      Operands o = operands(form, 37, 29, 23);
      run_gemm(kernel, form, o.a, o.b, o.c, 37, 29, 23);
      EXPECT_EQ(fingerprint(o.c), want) << form_name(form) << " at "
                                        << gemm_kernel_name(kernel);
    }
  }
}

TEST(GemmExact, ActiveKernelIsTheWidestSupported) {
  EXPECT_EQ(gemm_active_kernel(), gemm_kernel_supported(GemmKernel::kAvx2)
                                      ? GemmKernel::kAvx2
                                      : GemmKernel::kScalar);
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kScalar), "scalar");
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kAvx2), "avx2-fma");
}

// ---- GELU row kernel --------------------------------------------------------

/// Random inputs spanning GELU's interesting range, plus edge values:
/// signed zeros, infinities, NaN, and values around tanh's saturation.
std::vector<float> gelu_inputs() {
  core::Rng rng(41);
  std::vector<float> x;
  for (int i = 0; i < 4096; ++i) x.push_back(static_cast<float>(rng.normal(0.0, 3.0)));
  for (int i = 0; i < 256; ++i) x.push_back(static_cast<float>(rng.uniform(-1e-3, 1e-3)));
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float v : {0.0f, -0.0f, inf, -inf, nan, -nan, 1e-45f, -1e-45f,
                        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
                        9.02f, std::nextafter(9.02f, 0.0f), 1e19f, -1e19f}) {
    x.push_back(v);
  }
  // x whose u = sqrt(2/pi)(x + 0.044715 x^3) lands on the saturation point.
  for (float v = 3.0f; v < 3.6f; v += 1.0f / 1024) {
    x.push_back(v);
    x.push_back(-v);
  }
  return x;
}

TEST(GeluKernel, TiersAreBitIdentical) {
  const std::vector<float> x = gelu_inputs();
  core::Rng rng(42);
  std::vector<float> dy(x.size()), acc(x.size());
  for (float& v : dy) v = static_cast<float>(rng.normal());
  for (float& v : acc) v = static_cast<float>(rng.normal());
  const auto run = [&](GemmKernel kernel) {
    std::vector<std::vector<float>> out(3, std::vector<float>(x.size()));
    tanh_rows(kernel, x.data(), out[0].data(), x.size());
    gelu_rows(kernel, x.data(), nullptr, out[1].data(), x.size());
    out[2] = acc;
    gelu_rows(kernel, x.data(), dy.data(), out[2].data(), x.size());
    return out;
  };
  const auto reference = run(GemmKernel::kScalar);
  for (const GemmKernel kernel : kAllGemmKernels) {
    if (!gemm_kernel_supported(kernel)) continue;
    const auto got = run(kernel);
    for (std::size_t which = 0; which < got.size(); ++which) {
      ASSERT_EQ(std::memcmp(got[which].data(), reference[which].data(),
                            x.size() * sizeof(float)),
                0)
          << gemm_kernel_name(kernel) << " output " << which;
    }
  }
}

TEST(GeluKernel, SaturationAndSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> u = {9.02f, -9.02f, 100.0f, -inf, inf, 0.0f, -0.0f,
                                std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> t(u.size());
  tanh_rows(gemm_active_kernel(), u.data(), t.data(), u.size());
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(t[1], -1.0f);
  EXPECT_EQ(t[2], 1.0f);
  EXPECT_EQ(t[3], -1.0f);
  EXPECT_EQ(t[4], 1.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(t[5]), 0u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(t[6]), 0x80000000u);
  EXPECT_TRUE(std::isnan(t[7]));

  const std::vector<float> x = {inf, 0.0f, 20.0f, -20.0f};
  std::vector<float> y(x.size());
  gelu_rows(gemm_active_kernel(), x.data(), nullptr, y.data(), x.size());
  EXPECT_EQ(y[0], inf);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 20.0f);
  EXPECT_EQ(y[3], 0.0f);
}

double ulp_at(double v) {
  const float f = static_cast<float>(std::fabs(v));
  return f == 0.0f ? 0x1p-149 : static_cast<double>(std::nextafter(f, INFINITY) - f);
}

TEST(GeluKernel, ErrorBoundHoldsOverAllFiniteFloats) {
  // A strided sweep of every bit pattern, finite values only, against
  // double precision: tanh within 3 ulp, gelu within 2^-22 |x| + 2^-149.
  constexpr std::uint64_t kStride = 4093;  // prime: hits every exponent and sign
  std::vector<float> x;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32); bits += kStride) {
    const float v = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
    if (std::isfinite(v)) x.push_back(v);
  }
  std::vector<float> t(x.size()), y(x.size());
  tanh_rows(gemm_active_kernel(), x.data(), t.data(), x.size());
  gelu_rows(gemm_active_kernel(), x.data(), nullptr, y.data(), x.size());
  double worst_tanh = 0.0;
  double worst_gelu = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x[i];
    const double tr = std::tanh(xv);
    worst_tanh = std::max(worst_tanh, std::fabs(t[i] - tr) / ulp_at(tr));
    const double gr =
        0.5 * xv * (1.0 + std::tanh(0.7978845608028654 * (xv + 0.044715 * xv * xv * xv)));
    const double bound = 0x1p-22 * std::fabs(xv) + 0x1p-149;
    worst_gelu = std::max(worst_gelu, std::fabs(y[i] - gr) / bound);
  }
  EXPECT_LE(worst_tanh, 3.0) << "tanh error in ulp";
  EXPECT_LE(worst_gelu, 1.0) << "gelu error over its bound";
}

}  // namespace
}  // namespace cppflare::tensor
