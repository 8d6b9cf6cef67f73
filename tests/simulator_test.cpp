#include "flare/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <unistd.h>

#include "core/logging.h"

namespace cppflare::flare {
namespace {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Learner that moves the global weights halfway toward a site-specific
/// target — a linear-dynamics stand-in for local SGD whose federated fixed
/// point is the weighted mean of the targets.
class HalfwayLearner : public Learner {
 public:
  HalfwayLearner(std::string site, float target, std::int64_t samples)
      : site_(std::move(site)), target_(target), samples_(samples) {}

  Dxo train(const Dxo& global, const FLContext&) override {
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    Dxo update(DxoKind::kWeights, updated);
    update.set_meta_int(Dxo::kMetaNumSamples, samples_);
    update.set_meta_double(Dxo::kMetaTrainLoss, static_cast<double>(target_));
    update.set_meta_double(Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t samples_;
};

class SimulatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

TEST_F(SimulatorTest, ConvergesToWeightedMeanOfTargets) {
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 20;
  const std::vector<float> targets = {0.0f, 4.0f, 8.0f, 12.0f};
  const std::vector<std::int64_t> samples = {10, 10, 10, 10};

  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(
                               name, targets[static_cast<std::size_t>(i)],
                               samples[static_cast<std::size_t>(i)]);
                         });
  const SimulationResult result = runner.run();
  // Uniform samples: fixed point = mean(targets) = 6.
  EXPECT_NEAR(result.final_model.at("w").values[0], 6.0f, 1e-3f);
  EXPECT_EQ(result.history.size(), 20u);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST_F(SimulatorTest, WeightedFixedPointFollowsSampleCounts) {
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 25;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(
                               name, i == 0 ? 0.0f : 10.0f, i == 0 ? 300 : 100);
                         });
  const SimulationResult result = runner.run();
  // Fixed point of w <- (300*(w/2) + 100*(w/2 + 5)) / 400 => w = 2.5.
  EXPECT_NEAR(result.final_model.at("w").values[0], 2.5f, 1e-3f);
}

TEST_F(SimulatorTest, TcpTransportProducesSameResult) {
  SimulatorConfig config;
  config.num_clients = 3;
  config.num_rounds = 10;
  config.use_tcp = true;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(
                               name, static_cast<float>(i * 3), 10);
                         });
  const SimulationResult result = runner.run();
  EXPECT_NEAR(result.final_model.at("w").values[0], 3.0f, 1e-2f);
}

TEST_F(SimulatorTest, PersistsCheckpointEveryRound) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("cppflare_sim_ckpt_" + std::to_string(::getpid()) + ".bin"))
          .string();
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 3;
  config.persist_path = path;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(name, 2.0f, 10);
                         });
  const SimulationResult run = runner.run();
  ASSERT_FALSE(run.aborted);
  ModelPersistor persistor(path);
  const auto checkpoint = persistor.load();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->round, 2);  // last round index
  std::filesystem::remove(path);
}

TEST_F(SimulatorTest, RoundObserverSeesEveryRound) {
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 4;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(name, 1.0f, 10);
                         });
  std::vector<std::int64_t> rounds;
  std::vector<float> values;
  runner.server().add_round_observer(
      [&](std::int64_t round, const nn::StateDict& model, const RoundMetrics&) {
        rounds.push_back(round);
        values.push_back(model.at("w").values[0]);
      });
  const SimulationResult run = runner.run();
  ASSERT_FALSE(run.aborted);
  EXPECT_EQ(rounds, (std::vector<std::int64_t>{0, 1, 2, 3}));
  // Monotone approach toward the shared target 1.0.
  for (std::size_t i = 1; i < values.size(); ++i) EXPECT_GT(values[i], values[i - 1]);
}

TEST_F(SimulatorTest, ClientCustomizerAddsFilters) {
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 1;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(name, 100.0f, 10);
                         });
  std::atomic<int> customized{0};
  runner.set_client_customizer([&](SiteSession& session) {
    customized.fetch_add(1);
    session.outbound_filters().add(std::make_shared<NormClipFilter>(0.25));
  });
  const SimulationResult result = runner.run();
  EXPECT_EQ(customized.load(), 2);
  EXPECT_NEAR(std::fabs(result.final_model.at("w").values[0]), 0.25f, 1e-4f);
}

TEST_F(SimulatorTest, HistoryCarriesClientMetrics) {
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 2;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<HalfwayLearner>(
                               name, static_cast<float>(i), 10);
                         });
  const SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 2u);
  for (const RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 2);
    EXPECT_EQ(m.total_samples, 20);
    EXPECT_NEAR(m.train_loss, 0.5, 1e-9);  // mean of targets 0 and 1
    EXPECT_NEAR(m.valid_acc, 0.5, 1e-9);
  }
}

TEST_F(SimulatorTest, PartialParticipationSamplesPerRound) {
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 6;
  config.clients_per_round = 2;
  std::vector<std::shared_ptr<HalfwayLearner>> learners;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t, const std::string& name) {
                           auto l = std::make_shared<HalfwayLearner>(name, 4.0f, 10);
                           learners.push_back(l);
                           return l;
                         });
  const SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 6u);
  for (const RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 2);  // only the sampled pair contributes
  }
  // Sampling varies across rounds (with 6 rounds of 2-of-4, at least two
  // distinct subsets occur for this seed).
  // All clients share the same target so the model still converges toward 4.
  EXPECT_GT(result.final_model.at("w").values[0], 3.0f);
}

/// A learner failure with a type of its own, so tests can check that the
/// runner rethrows it unchanged.
class LearnerCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// HalfwayLearner for the sites in `crashing` (0-based); those throw
/// LearnerCrash naming their site instead of training.
SimulatorRunner::LearnerFactory crash_sites(std::set<std::int64_t> crashing) {
  return [crashing](std::int64_t i, const std::string& name) -> std::shared_ptr<Learner> {
    class Crashing : public Learner {
     public:
      explicit Crashing(std::string site) : site_(std::move(site)) {}
      Dxo train(const Dxo&, const FLContext&) override {
        throw LearnerCrash(site_ + ": learner crashed");
      }
      std::string site_name() const override { return site_; }

     private:
      std::string site_;
    };
    if (crashing.count(i) != 0) return std::make_shared<Crashing>(name);
    return std::make_shared<HalfwayLearner>(name, 1.0f, 10);
  };
}

TEST_F(SimulatorTest, FailedSitesListedInIndexOrderAtEveryPoolSize) {
  for (const std::int64_t workers : {0, 2}) {
    SimulatorConfig config;
    config.num_clients = 4;
    config.num_rounds = 2;
    config.min_clients = 2;
    config.round_deadline_ms = 200;
    config.site_workers = workers;
    SimulatorRunner runner(config, dict_of({0.0f}),
                           std::make_unique<FedAvgAggregator>(true),
                           crash_sites({1, 3}));
    const SimulationResult result = runner.run();
    EXPECT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(result.history.size(), 2u) << "site_workers " << workers;
    EXPECT_EQ(result.failed_sites, (std::vector<std::string>{"site-2", "site-4"}))
        << "site_workers " << workers;
  }
}

TEST_F(SimulatorTest, EverySiteFailingRethrowsLowestIndexFailurePromptly) {
  for (const std::int64_t workers : {0, 2}) {
    SimulatorConfig config;
    config.num_clients = 4;
    config.num_rounds = 2;
    config.timeout_ms = 20000;
    config.site_workers = workers;
    SimulatorRunner runner(config, dict_of({0.0f}),
                           std::make_unique<FedAvgAggregator>(true),
                           crash_sites({0, 1, 2, 3}));
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)runner.run();
      ADD_FAILURE() << "run() returned although every site failed";
    } catch (const LearnerCrash& e) {
      EXPECT_EQ(std::string(e.what()), "site-1: learner crashed")
          << "site_workers " << workers;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5))
        << "site_workers " << workers;
  }
}

TEST_F(SimulatorTest, RequiresLearnerFactory) {
  SimulatorConfig config;
  EXPECT_THROW(SimulatorRunner(config, dict_of({0.0f}),
                               std::make_unique<FedAvgAggregator>(true), nullptr),
               Error);
}

}  // namespace
}  // namespace cppflare::flare
