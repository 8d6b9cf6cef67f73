// Tests for Byzantine-robust aggregation and straggler (round-deadline)
// handling.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/logging.h"
#include "flare/robust_aggregator.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

Dxo weights_dxo(std::vector<float> w, std::int64_t samples = 1) {
  Dxo dxo(DxoKind::kWeights, dict_of(std::move(w)));
  dxo.set_meta_int(Dxo::kMetaNumSamples, samples);
  return dxo;
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

using RobustAggTest = QuietLogs;
using DeadlineTest = QuietLogs;

TEST_F(RobustAggTest, MedianOddCount) {
  MedianAggregator agg;
  agg.reset(dict_of({0, 0}), 0);
  agg.accept("a", weights_dxo({1, 10}));
  agg.accept("b", weights_dxo({2, 20}));
  agg.accept("c", weights_dxo({3, 90}));
  const nn::StateDict out = agg.aggregate();
  EXPECT_FLOAT_EQ(out.at("w").values[0], 2.0f);
  EXPECT_FLOAT_EQ(out.at("w").values[1], 20.0f);
}

TEST_F(RobustAggTest, MedianEvenCountAveragesMiddle) {
  MedianAggregator agg;
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({1}));
  agg.accept("b", weights_dxo({2}));
  agg.accept("c", weights_dxo({4}));
  agg.accept("d", weights_dxo({100}));
  EXPECT_FLOAT_EQ(agg.aggregate().at("w").values[0], 3.0f);
}

TEST_F(RobustAggTest, MedianResistsPoisonedClient) {
  // One malicious site sends a huge update; the median must stay near the
  // honest values while FedAvg would be dragged away.
  MedianAggregator median;
  FedAvgAggregator fedavg(false);
  for (Aggregator* agg : {static_cast<Aggregator*>(&median),
                          static_cast<Aggregator*>(&fedavg)}) {
    agg->reset(dict_of({0}), 0);
    agg->accept("h1", weights_dxo({1.0f}));
    agg->accept("h2", weights_dxo({1.1f}));
    agg->accept("h3", weights_dxo({0.9f}));
    agg->accept("evil", weights_dxo({1000.0f}));
  }
  EXPECT_NEAR(median.aggregate().at("w").values[0], 1.05f, 0.06f);
  EXPECT_GT(fedavg.aggregate().at("w").values[0], 200.0f);
}

TEST_F(RobustAggTest, MedianIgnoresClaimedSampleCounts) {
  MedianAggregator agg;
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({1}, 1));
  agg.accept("b", weights_dxo({2}, 1));
  agg.accept("evil", weights_dxo({99}, 1000000));  // huge claimed weight
  EXPECT_FLOAT_EQ(agg.aggregate().at("w").values[0], 2.0f);
}

TEST_F(RobustAggTest, TrimmedMeanDropsTails) {
  TrimmedMeanAggregator agg(1);
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({-100}));
  agg.accept("b", weights_dxo({1}));
  agg.accept("c", weights_dxo({3}));
  agg.accept("d", weights_dxo({500}));
  EXPECT_FLOAT_EQ(agg.aggregate().at("w").values[0], 2.0f);
}

TEST_F(RobustAggTest, TrimmedMeanNeedsEnoughContributions) {
  TrimmedMeanAggregator agg(1);
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({1}));
  agg.accept("b", weights_dxo({2}));
  EXPECT_THROW(agg.aggregate(), Error);
}

TEST_F(RobustAggTest, SharedValidationRules) {
  MedianAggregator agg;
  agg.reset(dict_of({0, 0}), 3);
  EXPECT_FALSE(agg.accept("a", Dxo{}));                    // metrics-only
  EXPECT_TRUE(agg.accept("a", weights_dxo({1, 1})));
  EXPECT_FALSE(agg.accept("a", weights_dxo({2, 2})));      // duplicate
  EXPECT_FALSE(agg.accept("b", weights_dxo({1})));         // incongruent
  Dxo diff(DxoKind::kWeightDiff, dict_of({1, 1}));
  diff.set_meta_int(Dxo::kMetaNumSamples, 1);
  EXPECT_FALSE(agg.accept("c", diff));                     // mixed kinds
  EXPECT_EQ(agg.accepted_count(), 1);
  EXPECT_EQ(agg.metrics().round, 3);
}

TEST_F(RobustAggTest, WeightDiffModeAppliesDeltaToGlobal) {
  MedianAggregator agg;
  agg.reset(dict_of({10}), 0);
  Dxo d1(DxoKind::kWeightDiff, dict_of({1}));
  d1.set_meta_int(Dxo::kMetaNumSamples, 1);
  Dxo d2(DxoKind::kWeightDiff, dict_of({3}));
  d2.set_meta_int(Dxo::kMetaNumSamples, 1);
  Dxo d3(DxoKind::kWeightDiff, dict_of({2}));
  d3.set_meta_int(Dxo::kMetaNumSamples, 1);
  agg.accept("a", d1);
  agg.accept("b", d2);
  agg.accept("c", d3);
  EXPECT_FLOAT_EQ(agg.aggregate().at("w").values[0], 12.0f);
}

TEST_F(RobustAggTest, EmptyRoundThrows) {
  MedianAggregator agg;
  agg.reset(dict_of({0}), 0);
  EXPECT_THROW(agg.aggregate(), Error);
}

TEST_F(RobustAggTest, EndToEndFederationWithPoisonedSite) {
  // Full simulator run: 3 honest sites pull the model toward 2.0, one
  // poisoned site toward 1e6. Median federation must converge near 2.
  class SiteLearner : public Learner {
   public:
    SiteLearner(std::string site, float target)
        : site_(std::move(site)), target_(target) {}
    Dxo train(const Dxo& global, const FLContext&) override {
      nn::StateDict d = global.data();
      for (auto& [k, blob] : d.entries()) {
        for (float& x : blob.values) x += 0.5f * (target_ - x);
      }
      Dxo update(DxoKind::kWeights, d);
      update.set_meta_int(Dxo::kMetaNumSamples, 10);
      return update;
    }
    std::string site_name() const override { return site_; }

   private:
    std::string site_;
    float target_;
  };

  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 10;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<MedianAggregator>(),
                         [](std::int64_t i, const std::string& name) {
                           const float target = i == 3 ? 1e6f : 2.0f;
                           return std::make_shared<SiteLearner>(name, target);
                         });
  const SimulationResult result = runner.run();
  EXPECT_NEAR(result.final_model.at("w").values[0], 2.0f, 0.1f);
}

TEST_F(DeadlineTest, RoundClosesWithoutStraggler) {
  // 3 clients, min_clients 2, 150 ms deadline; one client sleeps 10 s per
  // round. The run must finish quickly with 2 contributions per round.
  class FastLearner : public Learner {
   public:
    explicit FastLearner(std::string site) : site_(std::move(site)) {}
    Dxo train(const Dxo& global, const FLContext&) override {
      Dxo update(DxoKind::kWeights, global.data());
      update.set_meta_int(Dxo::kMetaNumSamples, 10);
      return update;
    }
    std::string site_name() const override { return site_; }

   private:
    std::string site_;
  };
  class SlowLearner : public FastLearner {
   public:
    using FastLearner::FastLearner;
    Dxo train(const Dxo& global, const FLContext& ctx) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      return FastLearner::train(global, ctx);
    }
  };

  const auto registry = Provisioner("deadline_test", 3).provision_sites(3);
  ServerConfig config;
  config.job_id = "deadline_test";
  config.num_rounds = 2;
  config.min_clients = 2;
  config.expected_clients = 3;
  config.round_deadline_ms = 150;
  FederatedServer server(config, registry, dict_of({1.0f}),
                         std::make_unique<FedAvgAggregator>(true));

  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<FederatedClient>> clients;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "site-" + std::to_string(i + 1);
    ClientConfig cc;
    cc.job_id = "deadline_test";
    std::shared_ptr<Learner> learner =
        i == 2 ? std::make_shared<SlowLearner>(name)
               : std::make_shared<FastLearner>(name);
    clients.push_back(std::make_unique<FederatedClient>(
        cc, registry.at(name),
        std::make_unique<InProcConnection>(server.async_dispatcher()), learner));
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& c : clients) {
    threads.emplace_back([&c] { c->run(); });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_TRUE(server.finished());
  const auto history = server.history();
  ASSERT_EQ(history.size(), 2u);
  // At least the first round closed at quorum without the straggler.
  EXPECT_EQ(history[0].num_contributions, 2);
  // Without the deadline this would take >= 2 * 800 ms of straggler time
  // per round plus coordination; with it the run ends much sooner than the
  // straggler's 2 full rounds.
  EXPECT_LT(secs, 3.0);
}

}  // namespace
}  // namespace cppflare::flare
