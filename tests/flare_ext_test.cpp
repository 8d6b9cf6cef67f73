// Tests for the framework extensions: best-model selection and secure
// aggregation by pairwise masking.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>

#include "core/keyed_stream.h"
#include "core/keyed_stream_kernel.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/sha256.h"
#include "flare/model_selector.h"
#include "flare/privacy_kernels.h"
#include "flare/secure_agg.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

RoundMetrics metrics_with(double acc, double loss) {
  RoundMetrics m;
  m.valid_acc = acc;
  m.valid_loss = loss;
  return m;
}

class QuietLogs : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

using BestModelSelectorTest = QuietLogs;
using SecureAggTest = QuietLogs;

TEST_F(BestModelSelectorTest, KeepsHighestAccuracyRound) {
  BestModelSelector selector;
  EXPECT_FALSE(selector.has_best());
  selector.observe(0, dict_of({1}), metrics_with(0.6, 1.0));
  selector.observe(1, dict_of({2}), metrics_with(0.8, 0.9));
  selector.observe(2, dict_of({3}), metrics_with(0.7, 0.5));
  ASSERT_TRUE(selector.has_best());
  EXPECT_EQ(selector.best_round(), 1);
  EXPECT_FLOAT_EQ(selector.best_model().at("w").values[0], 2.0f);
  EXPECT_DOUBLE_EQ(selector.best_metrics().valid_acc, 0.8);
}

TEST_F(BestModelSelectorTest, MinLossCriterion) {
  BestModelSelector selector(BestModelSelector::Criterion::kMinValidLoss);
  selector.observe(0, dict_of({1}), metrics_with(0.9, 1.0));
  selector.observe(1, dict_of({2}), metrics_with(0.5, 0.2));
  EXPECT_EQ(selector.best_round(), 1);
}

TEST_F(BestModelSelectorTest, TieKeepsEarlierRound) {
  BestModelSelector selector;
  selector.observe(0, dict_of({1}), metrics_with(0.7, 1.0));
  selector.observe(1, dict_of({2}), metrics_with(0.7, 1.0));
  EXPECT_EQ(selector.best_round(), 0);
}

TEST_F(BestModelSelectorTest, ThrowsBeforeAnyRound) {
  BestModelSelector selector;
  EXPECT_THROW(selector.best_model(), Error);
}

TEST_F(BestModelSelectorTest, AttachObservesSimulatedRun) {
  // Learner whose reported valid_acc peaks mid-run; the selector must keep
  // the peak round's model, not the final one.
  class PeakLearner : public Learner {
   public:
    explicit PeakLearner(std::string site) : site_(std::move(site)) {}
    Dxo train(const Dxo& global, const FLContext& ctx) override {
      nn::StateDict updated = global.data();
      updated.at("w").values[0] = static_cast<float>(ctx.current_round + 1);
      Dxo update(DxoKind::kWeights, updated);
      update.set_meta_int(Dxo::kMetaNumSamples, 10);
      update.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
      // Accuracy profile: 0.5, 0.9, 0.6, 0.4 over four rounds.
      const double profile[] = {0.5, 0.9, 0.6, 0.4};
      update.set_meta_double(Dxo::kMetaValidAcc, profile[ctx.current_round % 4]);
      return update;
    }
    std::string site_name() const override { return site_; }

   private:
    std::string site_;
  };

  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 4;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [](std::int64_t, const std::string& name) {
                           return std::make_shared<PeakLearner>(name);
                         });
  BestModelSelector selector;
  selector.attach(runner.server());
  const SimulationResult result = runner.run();
  ASSERT_FALSE(result.aborted);
  EXPECT_EQ(selector.best_round(), 1);
  EXPECT_FLOAT_EQ(selector.best_model().at("w").values[0], 2.0f);
}

TEST(EventBusTest, HandlersRunInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe(EventType::kRoundDone, [&](const FLContext&) { order.push_back(1); });
  bus.subscribe(EventType::kRoundDone, [&](const FLContext&) { order.push_back(2); });
  FLContext ctx;
  bus.fire(EventType::kRoundDone, ctx);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventBusTest, FireWithoutSubscribersIsNoop) {
  EventBus bus;
  FLContext ctx;
  bus.fire(EventType::kEndRun, ctx);  // must not crash
  SUCCEED();
}

TEST(EventBusTest, HandlersSeeContextFields) {
  EventBus bus;
  std::int64_t seen_round = -1;
  bus.subscribe(EventType::kRoundStarted,
                [&](const FLContext& ctx) { seen_round = ctx.current_round; });
  FLContext ctx;
  ctx.current_round = 7;
  bus.fire(EventType::kRoundStarted, ctx);
  EXPECT_EQ(seen_round, 7);
}

TEST(EventBusTest, EventTypeNames) {
  EXPECT_STREQ(event_type_name(EventType::kStartRun), "START_RUN");
  EXPECT_STREQ(event_type_name(EventType::kBeforeAggregation),
               "BEFORE_AGGREGATION");
  EXPECT_STREQ(event_type_name(EventType::kEndRun), "END_RUN");
}

TEST_F(SecureAggTest, PairKeysSymmetricAndDistinct) {
  SecureAggregationDealer dealer("proj", 5);
  EXPECT_EQ(dealer.pair_key("site-1", "site-2"), dealer.pair_key("site-2", "site-1"));
  EXPECT_NE(dealer.pair_key("site-1", "site-2"), dealer.pair_key("site-1", "site-3"));
  EXPECT_THROW(dealer.pair_key("site-1", "site-1"), Error);
  SecureAggregationDealer other("proj", 6);
  EXPECT_NE(dealer.pair_key("site-1", "site-2"), other.pair_key("site-1", "site-2"));
}

TEST_F(SecureAggTest, MasksCancelAcrossAllSites) {
  const std::vector<std::string> sites = {"site-1", "site-2", "site-3"};
  SecureAggregationDealer dealer("proj", 11);
  FLContext ctx;
  ctx.current_round = 2;

  const std::vector<float> x1 = {1.0f, 2.0f}, x2 = {3.0f, -1.0f}, x3 = {0.5f, 0.5f};
  std::vector<std::vector<float>> masked;
  for (const auto& [site, values] :
       {std::pair{std::string("site-1"), x1}, {std::string("site-2"), x2},
        {std::string("site-3"), x3}}) {
    Dxo dxo(DxoKind::kWeights, dict_of(values));
    SecureAggMaskFilter filter(site, sites, dealer);
    filter.process(dxo, ctx);
    masked.push_back(dxo.data().at("w").values);
  }
  // Each masked update differs from the raw one...
  EXPECT_NE(masked[0], x1);
  // ...and the mod-2^32 word sum decodes to *exactly* the raw sum: the
  // inputs sit on the 2^-16 fixed-point grid, and modular addition cancels
  // every mask bit-for-bit (the float path's EXPECT_NEAR era is over).
  for (int j = 0; j < 2; ++j) {
    std::uint32_t word = 0;
    for (const auto& m : masked) word += std::bit_cast<std::uint32_t>(m[j]);
    const float decoded = static_cast<float>(
        static_cast<double>(static_cast<std::int32_t>(word)) / 65536.0);
    EXPECT_EQ(decoded, x1[j] + x2[j] + x3[j]);
  }
}

TEST_F(SecureAggTest, UnmaskShareRemovesDroppedSitesMasks) {
  // site-3 submits nothing; the survivors' masks against it no longer
  // cancel. Subtracting each survivor's revealed mask *sum* against the
  // dropped set must restore the exact survivor aggregate.
  const std::vector<std::string> sites = {"site-1", "site-2", "site-3"};
  SecureAggregationDealer dealer("proj", 21);
  FLContext ctx;
  ctx.current_round = 3;

  const std::vector<float> x1 = {1.25f, -2.0f}, x2 = {0.5f, 4.0f};
  SecureAggMaskFilter f1("site-1", sites, dealer);
  SecureAggMaskFilter f2("site-2", sites, dealer);
  Dxo d1(DxoKind::kWeights, dict_of(x1));
  Dxo d2(DxoKind::kWeights, dict_of(x2));
  f1.process(d1, ctx);
  f2.process(d2, ctx);

  const Dxo s1 = f1.unmask_share({"site-3"}, ctx.current_round);
  const Dxo s2 = f2.unmask_share({"site-3"}, ctx.current_round);
  for (int j = 0; j < 2; ++j) {
    std::uint32_t word =
        std::bit_cast<std::uint32_t>(d1.data().at("w").values[j]) +
        std::bit_cast<std::uint32_t>(d2.data().at("w").values[j]);
    word -= std::bit_cast<std::uint32_t>(s1.data().at("w").values[j]);
    word -= std::bit_cast<std::uint32_t>(s2.data().at("w").values[j]);
    const float decoded = static_cast<float>(
        static_cast<double>(static_cast<std::int32_t>(word)) / 65536.0);
    EXPECT_EQ(decoded, x1[j] + x2[j]);
  }
}

TEST_F(SecureAggTest, UnmaskShareGuards) {
  const std::vector<std::string> sites = {"site-1", "site-2"};
  SecureAggregationDealer dealer("proj", 22);
  SecureAggMaskFilter filter("site-1", sites, dealer);
  // Before any masked upload there is no shape skeleton to draw against.
  EXPECT_THROW(filter.unmask_share({"site-2"}, 0), Error);
  FLContext ctx;
  Dxo d(DxoKind::kWeights, dict_of({1.0f}));
  filter.process(d, ctx);
  // Unknown names (including self) are ignored: the share is all zeros.
  const Dxo share = filter.unmask_share({"site-1", "nobody"}, 0);
  EXPECT_EQ(share.data().at("w").values[0], 0.0f);
}

TEST_F(SecureAggTest, MasksDifferAcrossRounds) {
  const std::vector<std::string> sites = {"site-1", "site-2"};
  SecureAggregationDealer dealer("proj", 12);
  SecureAggMaskFilter filter("site-1", sites, dealer);
  FLContext r0, r1;
  r0.current_round = 0;
  r1.current_round = 1;
  Dxo a(DxoKind::kWeights, dict_of({0, 0, 0, 0}));
  Dxo b(DxoKind::kWeights, dict_of({0, 0, 0, 0}));
  filter.process(a, r0);
  filter.process(b, r1);
  EXPECT_NE(a.data().at("w").values, b.data().at("w").values);
}

TEST_F(SecureAggTest, MaskWordsAreThePairsKeyedStream) {
  // Key schedule: HMAC-SHA256(pair key, "mask" ‖ le64(round)), zero nonce,
  // word i of the stream on element i. site-1 < site-2, so site-1 adds.
  const std::vector<std::string> sites = {"site-1", "site-2"};
  SecureAggregationDealer dealer("proj", 14);
  SecureAggMaskFilter filter("site-1", sites, dealer);
  FLContext ctx;
  ctx.current_round = 0x0102;
  Dxo dxo(DxoKind::kWeights, dict_of(std::vector<float>(37, 0.0f)));
  filter.process(dxo, ctx);
  const std::uint8_t message[12] = {'m', 'a', 's', 'k', 0x02, 0x01, 0, 0, 0, 0, 0, 0};
  const core::KeyedStream stream(
      core::hmac_sha256(dealer.pair_key("site-1", "site-2"), message, sizeof(message)),
      core::KeyedStream::Nonce{});
  std::vector<std::uint32_t> words(37);
  stream.read(0, words.size(), words.data());
  const auto& masked = dxo.data().at("w").values;
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(masked[i]), words[i]) << i;
  }
}

TEST_F(SecureAggTest, MaskedUploadsAreBitEqualAtEveryComputeBudget) {
  const std::vector<std::string> sites = {"site-1", "site-2", "site-3", "site-4"};
  SecureAggregationDealer dealer("proj", 15);
  nn::StateDict update;
  std::size_t k = 0;
  for (const std::int64_t n : {70001, 3, 100000, 1, 5000}) {
    std::vector<float> values(static_cast<std::size_t>(n));
    for (float& v : values) v = 0.001f * static_cast<float>(k++ % 1000) - 0.5f;
    std::string name = "p";
    name += std::to_string(n);
    update.insert(name, {{n}, std::move(values)});
  }
  const std::size_t saved = core::compute_threads();
  std::vector<nn::StateDict> uploads, shares;
  for (const std::size_t budget : {1, 2, 4}) {
    core::set_compute_threads(budget);
    SecureAggMaskFilter filter("site-2", sites, dealer);
    Dxo dxo(DxoKind::kWeightDiff, update);
    FLContext ctx;
    ctx.current_round = 5;
    filter.process(dxo, ctx);
    uploads.push_back(dxo.data());
    shares.push_back(filter.unmask_share({"site-1", "site-4"}, 5).data());
  }
  core::set_compute_threads(saved);
  for (const auto* set : {&uploads, &shares}) {
    for (std::size_t b = 1; b < set->size(); ++b) {
      for (const auto& [name, blob] : (*set)[0].entries()) {
        const auto& other = (*set)[b].at(name).values;
        ASSERT_EQ(other.size(), blob.values.size());
        EXPECT_EQ(std::memcmp(other.data(), blob.values.data(),
                              blob.values.size() * sizeof(float)), 0)
            << name << " at budget index " << b;
      }
    }
  }
}

class QuantizeKernelTest : public ::testing::TestWithParam<core::KeyedStreamKernel> {
 protected:
  void SetUp() override {
    if (!core::keyed_stream_kernel_supported(GetParam())) {
      GTEST_SKIP() << core::keyed_stream_kernel_name(GetParam()) << " unsupported";
    }
  }
};

// The scalar reference's semantics on the edges a vector quantize gets
// wrong: llround's ties away from zero, 0.5 - ulp, saturation, non-finite
// inputs and -0.0.
TEST(QuantizeTest, ReferenceSemantics) {
  const float step = std::ldexp(1.0f, -16);
  const float below_half = std::nextafter(0.5f, 0.0f);
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    float v;
    std::int32_t q;
  } table[] = {
      {0.0f, 0}, {-0.0f, 0}, {2.5f * step, 3}, {-2.5f * step, -3},
      {0.5f * step, 1}, {-0.5f * step, -1}, {1.5f * step, 2}, {-1.5f * step, -2},
      {below_half * step, 0}, {-below_half * step, 0},
      {std::nextafter(1.5f, 0.0f) * step, 1}, {32767.0f, 32767 * 65536},
      {32768.0f, 2147483647}, {-32768.0f, -2147483647},
      {std::numeric_limits<float>::max(), 2147483647},
      {-std::numeric_limits<float>::max(), -2147483647},
      {inf, 0}, {-inf, 0}, {std::nanf(""), 0}, {-std::nanf(""), 0},
      {std::numeric_limits<float>::denorm_min(), 0},
  };
  for (const auto& row : table) {
    EXPECT_EQ(quantize(row.v, 16), static_cast<std::uint32_t>(row.q)) << row.v;
  }
}

TEST_P(QuantizeKernelTest, BitEqualToScalarOnEdgesAndRandomValues) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> values = {
      0.0f, -0.0f, inf, -inf, std::nanf(""), -std::nanf(""),
      std::numeric_limits<float>::signaling_NaN(),
      std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::min(), std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min()};
  for (int e = -40; e <= 40; ++e) {
    for (const float m : {0.5f, 1.0f, 1.5f, 2.5f, std::nextafter(0.5f, 0.0f),
                          std::nextafter(0.5f, 1.0f), std::nextafter(1.5f, 0.0f),
                          std::nextafter(2.0f, 0.0f), 2147483520.0f * 0x1p-31f}) {
      values.push_back(std::ldexp(m, e));
      values.push_back(-std::ldexp(m, e));
    }
  }
  // Random bit patterns: every exponent, both signs, NaN payloads.
  std::vector<std::uint32_t> bits(4099);
  core::KeyedStream(core::Digest{}, core::KeyedStream::Nonce{})
      .read(0, bits.size(), bits.data());
  for (const std::uint32_t b : bits) values.push_back(std::bit_cast<float>(b));
  for (const std::int64_t frac_bits : {1, 16, 30}) {
    // Every start offset, so each value also lands in a vector remainder.
    for (std::size_t offset = 0; offset < 17; ++offset) {
      const std::size_t n = values.size() - offset;
      std::vector<std::uint32_t> got(n);
      quantize_words(GetParam(), values.data() + offset, got.data(), n, frac_bits);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], quantize(values[offset + i], frac_bits))
            << "value " << values[offset + i] << " (bits 0x" << std::hex
            << std::bit_cast<std::uint32_t>(values[offset + i]) << std::dec
            << ") frac_bits " << frac_bits;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, QuantizeKernelTest, ::testing::ValuesIn(core::kAllKeyedStreamKernels),
    [](const ::testing::TestParamInfo<core::KeyedStreamKernel>& info) {
      return std::string(core::keyed_stream_kernel_name(info.param));
    });

TEST_F(SecureAggTest, ValidatesParticipants) {
  SecureAggregationDealer dealer("proj", 13);
  EXPECT_THROW(SecureAggMaskFilter("site-9", {"site-1", "site-2"}, dealer), Error);
  EXPECT_THROW(SecureAggMaskFilter("site-1", {"site-1"}, dealer), Error);
}

/// Learner whose update is a constant grid-exact value per site — the
/// masked fixed-point pipeline must reproduce plain FedAvg bit-for-bit.
class ConstLearner : public Learner {
 public:
  ConstLearner(std::string site, float v, std::int64_t samples = 10)
      : site_(std::move(site)), v_(v), samples_(samples) {}
  Dxo train(const Dxo& global, const FLContext&) override {
    nn::StateDict d = global.data();
    for (auto& [k, blob] : d.entries()) {
      for (float& x : blob.values) x = v_;
    }
    Dxo update(DxoKind::kWeights, d);
    update.set_meta_int(Dxo::kMetaNumSamples, samples_);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float v_;
  std::int64_t samples_;
};

TEST_F(SecureAggTest, EndToEndFederationBitwiseEqualUnderMasking) {
  // Uniform FedAvg over grid-exact constant learners: the masked run's
  // published aggregate must be *bitwise* equal to the unmasked run's —
  // quantized modular masking cancels exactly, and MaskedFedAvgAggregator
  // shares FedAvg's scalar tail.
  auto run = [&](bool masked) {
    SimulatorConfig config;
    config.job_id = "secure_demo";
    config.num_clients = 4;
    config.num_rounds = 2;
    config.secure_agg.enabled = masked;
    config.secure_agg.dealer_seed = 77;
    SimulatorRunner runner(config, dict_of({0.0f, 0.0f}),
                           std::make_unique<FedAvgAggregator>(/*weighted=*/false),
                           [](std::int64_t i, const std::string& name) {
                             return std::make_shared<ConstLearner>(
                                 name, static_cast<float>(i));
                           });
    const SimulationResult result = runner.run();
    EXPECT_FALSE(result.aborted) << result.abort_reason;
    return result.final_model;
  };

  const nn::StateDict clean = run(false);
  const nn::StateDict secured = run(true);
  ASSERT_TRUE(clean.congruent_with(secured));
  EXPECT_EQ(clean.at("w").values, secured.at("w").values);
}

TEST_F(SecureAggTest, WeightedAggregationUnderMaskingRejected) {
  SimulatorConfig config;
  config.num_clients = 2;
  config.secure_agg.enabled = true;
  auto factory = [](std::int64_t i, const std::string& name) {
    return std::make_shared<ConstLearner>(name, static_cast<float>(i));
  };
  EXPECT_THROW(SimulatorRunner(config, dict_of({0.0f}),
                               std::make_unique<FedAvgAggregator>(/*weighted=*/true),
                               factory),
               ConfigError);
  // Sampling is equally incompatible: a sampled-out site's masks never
  // cancel (the check lives in the server's constructor).
  SimulatorConfig sampled;
  sampled.num_clients = 4;
  sampled.clients_per_round = 2;
  sampled.secure_agg.enabled = true;
  EXPECT_THROW(SimulatorRunner(sampled, dict_of({0.0f}),
                               std::make_unique<FedAvgAggregator>(false), factory),
               ConfigError);
}

TEST_F(SecureAggTest, PreScaledMaskingMatchesWeightedFedAvg) {
  // The supported weighted path under masking: each site pre-scales by
  // num_samples * num_sites / total_samples. With power-of-two factors the
  // masked uniform mean is bitwise-equal to server-side weighted FedAvg.
  const std::int64_t samples[] = {1, 1, 2, 4};  // total 8, factors s*4/8
  auto factory = [&](std::int64_t i, const std::string& name) {
    return std::make_shared<ConstLearner>(name, static_cast<float>(i),
                                          samples[i]);
  };

  SimulatorConfig weighted;
  weighted.num_clients = 4;
  weighted.num_rounds = 2;
  SimulatorRunner weighted_runner(weighted, dict_of({0.0f}),
                                  std::make_unique<FedAvgAggregator>(true),
                                  factory);
  const nn::StateDict want = weighted_runner.run().final_model;

  SimulatorConfig masked;
  masked.num_clients = 4;
  masked.num_rounds = 2;
  masked.secure_agg.enabled = true;
  masked.secure_agg.pre_scale = true;
  masked.secure_agg.total_samples = 8;
  SimulatorRunner masked_runner(masked, dict_of({0.0f}),
                                std::make_unique<FedAvgAggregator>(false),
                                factory);
  const nn::StateDict got = masked_runner.run().final_model;
  EXPECT_EQ(want.at("w").values, got.at("w").values);
}

}  // namespace
}  // namespace cppflare::flare
