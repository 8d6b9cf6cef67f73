#include "flare/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/keyed_stream.h"
#include "core/keyed_stream_kernel.h"
#include "core/parallel.h"
#include "flare/privacy_kernels.h"

namespace cppflare::flare {
namespace {

Dxo weights_dxo(std::vector<float> w) {
  nn::StateDict d;
  d.insert("a", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return Dxo(DxoKind::kWeights, d);
}

TEST(GaussianFilter, AddsZeroMeanNoise) {
  GaussianPrivacyFilter filter(0.1, 42);
  Dxo dxo = weights_dxo(std::vector<float>(10000, 1.0f));
  FLContext ctx;
  filter.process(dxo, ctx);
  double mean = 0.0, var = 0.0;
  const auto& vals = dxo.data().at("a").values;
  for (float v : vals) mean += v;
  mean /= vals.size();
  for (float v : vals) var += (v - mean) * (v - mean);
  var /= vals.size();
  EXPECT_NEAR(mean, 1.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.02);
}

TEST(GaussianFilter, SkipsMetricsDxo) {
  GaussianPrivacyFilter filter(1.0, 1);
  Dxo dxo;  // kMetrics, empty data
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_TRUE(dxo.data().empty());
}

TEST(GaussianFilter, NoiseVariesPerCall) {
  GaussianPrivacyFilter filter(0.5, 2);
  Dxo a = weights_dxo({0, 0, 0, 0});
  Dxo b = weights_dxo({0, 0, 0, 0});
  FLContext ctx;
  filter.process(a, ctx);
  filter.process(b, ctx);
  EXPECT_NE(a.data().at("a").values, b.data().at("a").values);
}

TEST(GaussianFilter, MomentsMatchAStandardNormal) {
  // 2^20 draws: the standard error of the mean is 0.001 and of the
  // kurtosis about 0.005, so these bounds sit many errors out.
  constexpr std::size_t kN = std::size_t{1} << 20;
  GaussianPrivacyFilter filter(1.0, 31);
  Dxo dxo = weights_dxo(std::vector<float>(kN, 0.0f));
  FLContext ctx;
  filter.process(dxo, ctx);
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0, max_abs = 0.0;
  std::size_t beyond_3 = 0;
  for (const float v : dxo.data().at("a").values) {
    const double z = v;
    sum += z;
    sum2 += z * z;
    sum4 += z * z * z * z;
    max_abs = std::max(max_abs, std::abs(z));
    beyond_3 += std::abs(z) > 3.0 ? 1 : 0;
  }
  const double n = static_cast<double>(kN);
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.01);
  EXPECT_NEAR((sum4 / n) / (var * var), 3.0, 0.05);
  // P(|z| > 3) = 0.0026998; its standard error here is 5e-5.
  EXPECT_NEAR(static_cast<double>(beyond_3) / n, 0.0026998, 0.0003);
  EXPECT_LE(max_abs, std::sqrt(48.0 * std::log(2.0)) + 1e-5);
}

TEST(GaussianFilter, NoiseIsAPureFunctionOfSeedRoundAndCall) {
  FLContext round3, round4;
  round3.current_round = 3;
  round4.current_round = 4;
  const auto release = [](GaussianPrivacyFilter& f, const FLContext& ctx) {
    Dxo dxo = weights_dxo(std::vector<float>(257, 0.5f));
    f.process(dxo, ctx);
    return dxo.data().at("a").values;
  };
  GaussianPrivacyFilter live(0.5, 9);
  const std::vector<float> r3_first = release(live, round3);
  const std::vector<float> r3_second = release(live, round3);
  const std::vector<float> r4_first = release(live, round4);
  EXPECT_NE(r3_first, r3_second);  // a second release draws fresh noise
  EXPECT_NE(r3_first, r4_first);
  // A filter rebuilt after a restart re-releases round r's first noise, so
  // a re-trained round spends no extra epsilon.
  GaussianPrivacyFilter restarted(0.5, 9);
  EXPECT_EQ(release(restarted, round4), r4_first);
  GaussianPrivacyFilter restarted_again(0.5, 9);
  EXPECT_EQ(release(restarted_again, round3), r3_first);
  EXPECT_EQ(release(restarted_again, round3), r3_second);
}

TEST(GaussianFilter, NoiseIsTheDocumentedKeyedStream) {
  // key = HMAC-SHA256(le64(seed), "dp-noise"), nonce = le64(round) ‖
  // le32(call), word i of the stream feeding element i's Box–Muller.
  constexpr std::uint64_t kSeed = 0x0102030405060708ull;
  constexpr std::size_t kN = 40;
  std::vector<std::uint8_t> seed_key = {8, 7, 6, 5, 4, 3, 2, 1};
  const std::string label = "dp-noise";
  const core::Digest key = core::hmac_sha256(
      seed_key, reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  const core::KeyedStream::Nonce nonce = {6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0};
  std::vector<std::uint32_t> words(64);
  core::KeyedStream(key, nonce).read(0, words.size(), words.data());
  std::vector<float> z(64), want(kN, 0.25f);
  gaussian_from_words(core::KeyedStreamKernel::kScalar, words.data(), 2, z.data());
  add_scaled(2.0f, z.data(), want.data(), kN);

  GaussianPrivacyFilter filter(2.0, kSeed);
  FLContext ctx;
  ctx.current_round = 6;
  Dxo first = weights_dxo(std::vector<float>(kN, 0.25f));
  Dxo second = weights_dxo(std::vector<float>(kN, 0.25f));
  filter.process(first, ctx);
  filter.process(second, ctx);  // call index 1
  EXPECT_EQ(second.data().at("a").values, want);
}

TEST(GaussianFilter, UploadsAreBitEqualAtEveryComputeBudget) {
  // Blob sizes put chunk boundaries inside blobs and blob boundaries
  // inside chunks.
  nn::StateDict update;
  std::size_t k = 0;
  for (const std::int64_t n : {70001, 3, 100000, 1, 5000}) {
    std::vector<float> values(static_cast<std::size_t>(n));
    for (float& v : values) v = 0.001f * static_cast<float>(k++ % 1000);
    std::string name = "p";
    name += std::to_string(n);
    update.insert(name, {{n}, std::move(values)});
  }
  const std::size_t saved = core::compute_threads();
  std::vector<nn::StateDict> uploads;
  for (const std::size_t budget : {1, 2, 4}) {
    core::set_compute_threads(budget);
    DpGaussianFilter filter(1e9, 0.5, 77);
    Dxo dxo(DxoKind::kWeightDiff, update);
    FLContext ctx;
    ctx.current_round = 2;
    filter.process(dxo, ctx);
    uploads.push_back(dxo.data());
  }
  core::set_compute_threads(saved);
  for (std::size_t b = 1; b < uploads.size(); ++b) {
    for (const auto& [name, blob] : uploads[0].entries()) {
      const auto& other = uploads[b].at(name).values;
      ASSERT_EQ(other.size(), blob.values.size());
      EXPECT_EQ(std::memcmp(other.data(), blob.values.data(),
                            blob.values.size() * sizeof(float)), 0)
          << name << " at budget index " << b;
    }
  }
  EXPECT_NE(uploads[0].at("p3").values, update.at("p3").values);
}

class GaussianKernelTest : public ::testing::TestWithParam<core::KeyedStreamKernel> {
 protected:
  void SetUp() override {
    if (!core::keyed_stream_kernel_supported(GetParam())) {
      GTEST_SKIP() << core::keyed_stream_kernel_name(GetParam()) << " unsupported";
    }
  }
};

TEST_P(GaussianKernelTest, BitEqualToScalar) {
  // Keystream words plus edge words: u1 at its extremes and u2 on every
  // quadrant boundary and one step either side of it.
  std::vector<std::uint32_t> words(32 * 2053);
  core::KeyedStream(core::Digest{}, core::KeyedStream::Nonce{})
      .read(0, words.size(), words.data());
  const std::uint32_t u1_edges[] = {0, 0xff, 0x100, 0x7fffffff, 0x80000000,
                                    0xfffffeff, 0xffffff00, 0xffffffff};
  std::vector<std::uint32_t> u2_edges;
  for (std::uint32_t q = 0; q <= 8; ++q) {
    const std::uint32_t j = q << 21;  // multiples of an eighth turn
    for (const std::uint32_t d : {0u, 1u, 0xffffffu}) {
      u2_edges.push_back(((j + d) & 0xffffff) << 8);
      u2_edges.push_back((((j + d) & 0xffffff) << 8) | 0xff);
    }
  }
  std::size_t at = 0;
  for (const std::uint32_t u1 : u1_edges) {
    for (const std::uint32_t u2 : u2_edges) {
      const std::size_t group = at / 16, lane = at % 16;
      words[32 * group + lane] = u1;
      words[32 * group + 16 + lane] = u2;
      ++at;
    }
  }
  const std::size_t groups = words.size() / 32;
  std::vector<float> want(words.size()), got(words.size());
  gaussian_from_words(core::KeyedStreamKernel::kScalar, words.data(), groups, want.data());
  gaussian_from_words(GetParam(), words.data(), groups, got.data());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
}

// On the process's kernel; BitEqualToScalar carries the result to the
// other tiers.
TEST(GaussianKernel, EveryU1GivesAFiniteRadiusWithinTheTailBound) {
  // u2 = 0 makes z = r for all 2^24 values of u1's numerator.
  const double bound = std::sqrt(48.0 * std::log(2.0)) + 1e-5;
  constexpr std::size_t kGroups = 1 << 15;
  std::vector<std::uint32_t> words(32 * kGroups, 0);
  std::vector<float> z(words.size());
  float smallest = 1.0f;
  for (std::uint32_t j = 0; j < (1u << 24); j += 16 * kGroups) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (std::uint32_t i = 0; i < 16; ++i) {
        words[32 * g + i] = (j + 16 * static_cast<std::uint32_t>(g) + i) << 8;
      }
    }
    gaussian_from_words(core::keyed_stream_active_kernel(), words.data(), kGroups,
                        z.data());
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (std::size_t i = 0; i < 16; ++i) {
        const float r = z[32 * g + i];
        ASSERT_TRUE(std::isfinite(r) && r >= 0.0f && r <= bound)
            << "u1 numerator " << (words[32 * g + i] >> 8) << " gives " << r;
        smallest = std::min(smallest, r);
        ASSERT_EQ(z[32 * g + 16 + i], 0.0f);  // r sin 0
      }
    }
  }
  EXPECT_EQ(smallest, 0.0f);  // u1 = 1
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GaussianKernelTest, ::testing::ValuesIn(core::kAllKeyedStreamKernels),
    [](const ::testing::TestParamInfo<core::KeyedStreamKernel>& info) {
      return std::string(core::keyed_stream_kernel_name(info.param));
    });

TEST(NormClip, ScalesDownLargeUpdates) {
  NormClipFilter filter(1.0);
  Dxo dxo = weights_dxo({3.0f, 4.0f});  // norm 5
  FLContext ctx;
  filter.process(dxo, ctx);
  const auto& v = dxo.data().at("a").values;
  EXPECT_NEAR(std::sqrt(v[0] * v[0] + v[1] * v[1]), 1.0, 1e-5);
  EXPECT_NEAR(v[0] / v[1], 0.75, 1e-5);  // direction preserved
}

TEST(NormClip, LeavesSmallUpdatesAlone) {
  NormClipFilter filter(10.0);
  Dxo dxo = weights_dxo({3.0f, 4.0f});
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_FLOAT_EQ(dxo.data().at("a").values[0], 3.0f);
}

TEST(NormClip, NormSpansAllBlobs) {
  NormClipFilter filter(5.0);
  nn::StateDict d;
  d.insert("a", {{1}, {6.0f}});
  d.insert("b", {{1}, {8.0f}});  // global norm 10
  Dxo dxo(DxoKind::kWeightDiff, d);
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_NEAR(dxo.data().at("a").values[0], 3.0f, 1e-5f);
  EXPECT_NEAR(dxo.data().at("b").values[0], 4.0f, 1e-5f);
}

TEST(NormClip, ZeroUpdateUnchanged) {
  NormClipFilter filter(1.0);
  Dxo dxo = weights_dxo({0.0f, 0.0f});
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_FLOAT_EQ(dxo.data().at("a").values[0], 0.0f);
}

TEST(NormClip, AllNaNPayloadPassesThroughUntouched) {
  // Clipping a non-finite norm would smear NaN across every value via
  // max_norm/NaN; the filter leaves the payload intact so the server-side
  // validator can reject it with a typed non_finite verdict.
  NormClipFilter filter(1.0);
  const float qnan = std::nanf("");
  Dxo dxo = weights_dxo({qnan, qnan, qnan});
  FLContext ctx;
  filter.process(dxo, ctx);
  for (float v : dxo.data().at("a").values) EXPECT_TRUE(std::isnan(v));
}

TEST(NormClip, SingleInfAlsoSkipsClipping) {
  NormClipFilter filter(1.0);
  Dxo dxo = weights_dxo({std::numeric_limits<float>::infinity(), 2.0f});
  FLContext ctx;
  filter.process(dxo, ctx);
  // The finite value is untouched — no partial rescale of a poisoned update.
  EXPECT_FLOAT_EQ(dxo.data().at("a").values[1], 2.0f);
  EXPECT_TRUE(std::isinf(dxo.data().at("a").values[0]));
}

TEST(GaussianFilter, SameSeedSameNoise) {
  // Two filters built with the same seed must perturb identically — the
  // determinism contract that makes privacy-filtered runs replayable.
  GaussianPrivacyFilter a(0.5, 77);
  GaussianPrivacyFilter b(0.5, 77);
  Dxo da = weights_dxo({1.0f, 2.0f, 3.0f, 4.0f});
  Dxo db = weights_dxo({1.0f, 2.0f, 3.0f, 4.0f});
  FLContext ctx;
  a.process(da, ctx);
  b.process(db, ctx);
  EXPECT_EQ(da.data().at("a").values, db.data().at("a").values);

  GaussianPrivacyFilter c(0.5, 78);
  Dxo dc = weights_dxo({1.0f, 2.0f, 3.0f, 4.0f});
  c.process(dc, ctx);
  EXPECT_NE(da.data().at("a").values, dc.data().at("a").values);
}

TEST(FilterChainTest, OrderingIsObservable) {
  // clip-then-noise leaves the noise unclipped; noise-then-clip bounds the
  // final norm. The chain must run filters strictly in insertion order.
  const auto run = [](bool clip_first) {
    FilterChain chain;
    if (clip_first) chain.add(std::make_shared<NormClipFilter>(1.0));
    chain.add(std::make_shared<GaussianPrivacyFilter>(2.0, 7));
    if (!clip_first) chain.add(std::make_shared<NormClipFilter>(1.0));
    Dxo dxo = weights_dxo({30.0f, 40.0f});
    FLContext ctx;
    chain.process(dxo, ctx);
    const auto& v = dxo.data().at("a").values;
    return std::sqrt(static_cast<double>(v[0]) * v[0] +
                     static_cast<double>(v[1]) * v[1]);
  };
  EXPECT_GT(run(/*clip_first=*/true), 1.0 + 1e-6);   // noise escaped the clip
  EXPECT_LE(run(/*clip_first=*/false), 1.0 + 1e-6);  // clip bounded the noise
}

TEST(ExcludeVars, DropsMatchingPrefix) {
  nn::StateDict d;
  d.insert("head.weight", {{1}, {1.0f}});
  d.insert("head.bias", {{1}, {2.0f}});
  d.insert("encoder.weight", {{1}, {3.0f}});
  Dxo dxo(DxoKind::kWeights, d);
  ExcludeVarsFilter filter("head.");
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_EQ(dxo.data().size(), 1u);
  EXPECT_TRUE(dxo.data().contains("encoder.weight"));
}

TEST(ExcludeVars, NoMatchesIsNoop) {
  nn::StateDict d;
  d.insert("encoder.weight", {{1}, {3.0f}});
  Dxo dxo(DxoKind::kWeights, d);
  ExcludeVarsFilter filter("nothing.");
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_EQ(dxo.data().size(), 1u);
}

TEST(FilterChainTest, AppliesInOrder) {
  FilterChain chain;
  chain.add(std::make_shared<NormClipFilter>(1.0));
  chain.add(std::make_shared<ExcludeVarsFilter>("drop."));
  nn::StateDict d;
  d.insert("drop.x", {{1}, {100.0f}});
  d.insert("keep.y", {{1}, {100.0f}});
  Dxo dxo(DxoKind::kWeights, d);
  FLContext ctx;
  chain.process(dxo, ctx);
  // Clip first (norm over both), then drop.
  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(dxo.data().size(), 1u);
  EXPECT_LT(dxo.data().at("keep.y").values[0], 1.0f);
}

TEST(FilterChainTest, EmptyChainNoop) {
  FilterChain chain;
  Dxo dxo = weights_dxo({5.0f});
  FLContext ctx;
  chain.process(dxo, ctx);
  EXPECT_FLOAT_EQ(dxo.data().at("a").values[0], 5.0f);
}

TEST(DpGaussian, ClipsThenPerturbsAtCalibratedSigma) {
  // sigma = z * C: with C = 1 and z = 0.1 the post-clip unit vector gets
  // noise with stddev 0.1 — verify empirically over a long payload.
  DpGaussianFilter filter(1.0, 0.1, 42);
  std::vector<float> w(10000, 0.0f);
  w[0] = 30.0f;
  w[1] = 40.0f;  // norm 50, clipped to 1
  Dxo dxo = weights_dxo(std::move(w));
  FLContext ctx;
  filter.process(dxo, ctx);
  const auto& vals = dxo.data().at("a").values;
  EXPECT_NEAR(vals[0], 0.6f, 0.5f);  // clipped direction survives the noise
  double var = 0.0;
  for (std::size_t i = 2; i < vals.size(); ++i) {
    var += static_cast<double>(vals[i]) * vals[i];  // mean 0 by construction
  }
  var /= static_cast<double>(vals.size() - 2);
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.02);
}

TEST(DpGaussian, ZeroMultiplierIsPureClip) {
  DpGaussianFilter filter(1.0, 0.0, 7);
  Dxo dxo = weights_dxo({3.0f, 4.0f});  // norm 5
  FLContext ctx;
  filter.process(dxo, ctx);
  const auto& v = dxo.data().at("a").values;
  EXPECT_NEAR(std::sqrt(v[0] * v[0] + v[1] * v[1]), 1.0, 1e-5);
  EXPECT_NEAR(v[0] / v[1], 0.75, 1e-5);
}

TEST(DpGaussian, SkipsMetricsAndValidatesCtor) {
  DpGaussianFilter filter(1.0, 1.0, 1);
  Dxo metrics;  // kMetrics
  FLContext ctx;
  filter.process(metrics, ctx);
  EXPECT_TRUE(metrics.data().empty());
  EXPECT_THROW(DpGaussianFilter(0.0, 1.0, 1), Error);
  EXPECT_THROW(DpGaussianFilter(-1.0, 1.0, 1), Error);
  EXPECT_THROW(DpGaussianFilter(1.0, -0.5, 1), Error);
}

TEST(DpAccountant, BasicCompositionMatchesClosedForm) {
  const DpAccountant acc(1.1, 1e-5);
  const double expected = std::sqrt(2.0 * std::log(1.25 / 1e-5)) / 1.1;
  EXPECT_NEAR(acc.epsilon_per_round(), expected, 1e-12);
  EXPECT_NEAR(acc.epsilon_after(10), 10.0 * expected, 1e-9);
  EXPECT_EQ(acc.epsilon_after(0), 0.0);
  EXPECT_EQ(acc.delta(), 1e-5);
  // More noise, less spend.
  EXPECT_LT(DpAccountant(2.0, 1e-5).epsilon_per_round(),
            acc.epsilon_per_round());
}

TEST(DpAccountant, NoNoiseMeansInfiniteSpend) {
  const DpAccountant acc(0.0, 1e-5);
  EXPECT_TRUE(std::isinf(acc.epsilon_per_round()));
  EXPECT_TRUE(std::isinf(acc.epsilon_after(1)));
}

TEST(DpAccountant, RejectsDegenerateDelta) {
  EXPECT_THROW(DpAccountant(1.0, 0.0), Error);
  EXPECT_THROW(DpAccountant(1.0, 1.0), Error);
  EXPECT_THROW(DpAccountant(1.0, -0.1), Error);
  EXPECT_THROW(DpAccountant(1.0, 1.5), Error);
}

TEST(PreScale, ScalesByShareOfTotalSamples) {
  // 4 sites, 8 samples total, this site holds 4: factor 4*4/8 = 2.
  PreScaleFilter filter(4, 8);
  Dxo dxo = weights_dxo({1.5f, -2.0f});
  dxo.set_meta_int(Dxo::kMetaNumSamples, 4);
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_EQ(dxo.data().at("a").values[0], 3.0f);
  EXPECT_EQ(dxo.data().at("a").values[1], -4.0f);
}

TEST(PreScale, UniformSitesAreFixedPoint) {
  // Equal shares (factor 1) must leave the update bitwise intact — the
  // degenerate case where weighted and unweighted FedAvg already agree.
  PreScaleFilter filter(4, 40);
  Dxo dxo = weights_dxo({0.1f, 0.2f, 0.3f});
  dxo.set_meta_int(Dxo::kMetaNumSamples, 10);
  FLContext ctx;
  filter.process(dxo, ctx);
  EXPECT_EQ(dxo.data().at("a").values, (std::vector<float>{0.1f, 0.2f, 0.3f}));
}

TEST(PreScale, SkipsMetricsAndValidatesCtor) {
  PreScaleFilter filter(2, 10);
  Dxo metrics;
  FLContext ctx;
  filter.process(metrics, ctx);
  EXPECT_TRUE(metrics.data().empty());
  EXPECT_THROW(PreScaleFilter(0, 10), Error);
  EXPECT_THROW(PreScaleFilter(2, 0), Error);
  EXPECT_THROW(PreScaleFilter(-1, -1), Error);
}

TEST(FilterNames, Describe) {
  EXPECT_EQ(GaussianPrivacyFilter(0.1, 1).name(), "GaussianPrivacy");
  EXPECT_EQ(NormClipFilter(1.0).name(), "NormClip");
  EXPECT_EQ(ExcludeVarsFilter("head.").name(), "ExcludeVars(head.)");
  EXPECT_EQ(DpGaussianFilter(1.0, 1.0, 1).name(), "DpGaussian");
  EXPECT_EQ(PreScaleFilter(2, 10).name(), "PreScale");
}

}  // namespace
}  // namespace cppflare::flare
