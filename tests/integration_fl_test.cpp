// End-to-end federated training on a tiny learnable task: the full stack
// (provisioning, secure channel, server, clients, ClinicalLearner, FedAvg)
// must reproduce the paper's qualitative result — FL tracking centralized
// and beating standalone when client data is skewed.
#include <gtest/gtest.h>

#include "core/logging.h"
#include "data/partitioner.h"
#include "flare/simulator.h"
#include "models/lstm_classifier.h"
#include "train/clinical_learner.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace cppflare::train {
namespace {

/// Order task as in trainer_test: label = 1 iff token A precedes token B.
data::Dataset order_task(std::int64_t n, std::int64_t seq, std::uint64_t seed) {
  core::Rng rng(seed);
  const std::int64_t a = 5, b = 6;
  data::Dataset d;
  for (std::int64_t i = 0; i < n; ++i) {
    data::Sample s;
    s.ids.assign(static_cast<std::size_t>(seq), data::Vocabulary::kPad);
    s.ids[0] = data::Vocabulary::kCls;
    for (std::int64_t t = 1; t < seq; ++t) s.ids[t] = 7 + rng.uniform_int(0, 3);
    const std::int64_t p1 = rng.uniform_int(1, seq / 2);
    const std::int64_t p2 = rng.uniform_int(seq / 2 + 1, seq - 1);
    const bool a_first = rng.bernoulli(0.5);
    s.ids[p1] = a_first ? a : b;
    s.ids[p2] = a_first ? b : a;
    s.label = a_first ? 1 : 0;
    s.length = seq;
    d.add(s);
  }
  return d;
}

models::ModelConfig tiny_lstm() {
  models::ModelConfig c = models::ModelConfig::lstm(16, 10);
  c.hidden = 24;
  c.layers = 1;
  c.dropout = 0.0f;
  return c;
}

class IntegrationFlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

TEST_F(IntegrationFlTest, FederatedLearnsOrderTask) {
  const data::Dataset train = order_task(384, 10, 21);
  const data::Dataset valid = order_task(128, 10, 22);

  data::PartitionOptions popts;
  popts.num_clients = 4;
  popts.label_skew_alpha = 0.4;  // non-IID clinics
  popts.seed = 23;
  const auto shards = data::partition(train, popts);

  const models::ModelConfig mconfig = tiny_lstm();
  core::Rng init_rng(24);
  auto initial = models::make_classifier(mconfig, init_rng);

  flare::SimulatorConfig sim;
  sim.num_clients = 4;
  sim.num_rounds = 20;

  LearnerOptions lopts;
  lopts.local_epochs = 1;
  lopts.batch_size = 16;
  lopts.lr = 1e-2;
  lopts.verbose = false;

  flare::SimulatorRunner runner(
      sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
      [&](std::int64_t i, const std::string& name) {
        core::Rng site_rng(30 + i);
        auto model = models::make_classifier(mconfig, site_rng);
        return std::make_shared<ClinicalLearner>(
            name, std::move(model), shards[static_cast<std::size_t>(i)], valid,
            lopts);
      });
  const flare::SimulationResult result = runner.run();

  core::Rng eval_rng(40);
  auto final_model = models::make_classifier(mconfig, eval_rng);
  final_model->load_state_dict(result.final_model);
  const EvalResult eval = evaluate(*final_model, valid, 16);
  EXPECT_GT(eval.accuracy, 0.85);
}

TEST_F(IntegrationFlTest, FlBeatsStandaloneUnderSkew) {
  const data::Dataset train = order_task(384, 10, 51);
  const data::Dataset valid = order_task(160, 10, 52);

  data::PartitionOptions popts;
  popts.num_clients = 4;
  popts.size_ratios = {0.55, 0.25, 0.12, 0.08};
  popts.label_skew_alpha = 0.15;  // strong skew
  popts.seed = 53;
  const auto shards = data::partition(train, popts);
  const models::ModelConfig mconfig = tiny_lstm();

  // Standalone: each site alone, same per-site budget as 12 FL rounds.
  double standalone_acc = 0.0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    core::Rng rng(60 + i);
    auto model = models::make_classifier(mconfig, rng);
    TrainOptions topts;
    topts.epochs = 12;
    topts.batch_size = 16;
    topts.lr = 1e-2;
    topts.seed = 70 + i;
    ClassifierTrainer trainer(model, topts);
    for (int e = 0; e < topts.epochs; ++e) trainer.train_epoch(shards[i]);
    standalone_acc += evaluate(*model, valid, 16).accuracy;
  }
  standalone_acc /= static_cast<double>(shards.size());

  // Federated with identical budget.
  core::Rng init_rng(80);
  auto initial = models::make_classifier(mconfig, init_rng);
  flare::SimulatorConfig sim;
  sim.num_clients = 4;
  sim.num_rounds = 12;
  LearnerOptions lopts;
  lopts.local_epochs = 1;
  lopts.batch_size = 16;
  lopts.lr = 1e-2;
  lopts.verbose = false;
  flare::SimulatorRunner runner(
      sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
      [&](std::int64_t i, const std::string& name) {
        core::Rng site_rng(90 + i);
        auto model = models::make_classifier(mconfig, site_rng);
        return std::make_shared<ClinicalLearner>(
            name, std::move(model), shards[static_cast<std::size_t>(i)], valid,
            lopts);
      });
  const flare::SimulationResult result = runner.run();
  core::Rng eval_rng(100);
  auto fl_model = models::make_classifier(mconfig, eval_rng);
  fl_model->load_state_dict(result.final_model);
  const double fl_acc = evaluate(*fl_model, valid, 16).accuracy;

  EXPECT_GT(fl_acc, standalone_acc);
}

TEST_F(IntegrationFlTest, WeightDiffModeMatchesFullWeights) {
  const data::Dataset train = order_task(128, 10, 61);
  const data::Dataset valid = order_task(64, 10, 62);
  data::PartitionOptions popts;
  popts.num_clients = 2;
  popts.seed = 63;
  const auto shards = data::partition(train, popts);
  const models::ModelConfig mconfig = tiny_lstm();

  auto run_mode = [&](bool send_diff) {
    core::Rng init_rng(64);
    auto initial = models::make_classifier(mconfig, init_rng);
    flare::SimulatorConfig sim;
    sim.num_clients = 2;
    sim.num_rounds = 3;
    LearnerOptions lopts;
    lopts.local_epochs = 1;
    lopts.batch_size = 16;
    lopts.lr = 5e-3;
    lopts.send_diff = send_diff;
    lopts.verbose = false;
    flare::SimulatorRunner runner(
        sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
        [&](std::int64_t i, const std::string& name) {
          core::Rng site_rng(65 + i);
          auto model = models::make_classifier(mconfig, site_rng);
          return std::make_shared<ClinicalLearner>(
              name, std::move(model), shards[static_cast<std::size_t>(i)], valid,
              lopts);
        });
    return runner.run().final_model;
  };

  const nn::StateDict full = run_mode(false);
  const nn::StateDict diff = run_mode(true);
  // Weighted mean of (w_i) equals global + weighted mean of (w_i - global):
  // identical math, so results agree to float tolerance.
  ASSERT_TRUE(full.congruent_with(diff));
  auto it_f = full.entries().begin();
  auto it_d = diff.entries().begin();
  for (; it_f != full.entries().end(); ++it_f, ++it_d) {
    for (std::size_t i = 0; i < it_f->second.values.size(); ++i) {
      EXPECT_NEAR(it_f->second.values[i], it_d->second.values[i], 1e-4f);
    }
  }
}

TEST_F(IntegrationFlTest, DpNoiseDegradesGracefully) {
  const data::Dataset train = order_task(256, 10, 71);
  const data::Dataset valid = order_task(96, 10, 72);
  data::PartitionOptions popts;
  popts.num_clients = 2;
  popts.seed = 73;
  const auto shards = data::partition(train, popts);
  const models::ModelConfig mconfig = tiny_lstm();

  auto run_sigma = [&](double sigma) {
    core::Rng init_rng(74);
    auto initial = models::make_classifier(mconfig, init_rng);
    flare::SimulatorConfig sim;
    sim.num_clients = 2;
    sim.num_rounds = 10;
    LearnerOptions lopts;
    lopts.local_epochs = 1;
    lopts.batch_size = 16;
    lopts.lr = 1e-2;
    lopts.verbose = false;
    flare::SimulatorRunner runner(
        sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
        [&](std::int64_t i, const std::string& name) {
          core::Rng site_rng(75 + i);
          auto model = models::make_classifier(mconfig, site_rng);
          return std::make_shared<ClinicalLearner>(
              name, std::move(model), shards[static_cast<std::size_t>(i)], valid,
              lopts);
        });
    if (sigma > 0) {
      runner.set_client_customizer([&](flare::SiteSession& session) {
        session.outbound_filters().add(
            std::make_shared<flare::GaussianPrivacyFilter>(sigma, 76));
      });
    }
    const auto result = runner.run();
    core::Rng eval_rng(77);
    auto model = models::make_classifier(mconfig, eval_rng);
    model->load_state_dict(result.final_model);
    return evaluate(*model, valid, 16).accuracy;
  };

  const double clean = run_sigma(0.0);
  const double heavy_noise = run_sigma(1.0);  // absurd sigma destroys the model
  EXPECT_GT(clean, 0.8);
  EXPECT_LT(heavy_noise, clean);
}

}  // namespace
}  // namespace cppflare::train
