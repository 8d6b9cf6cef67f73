// Adversarial-site defense suite (DESIGN.md §10).
//
// Exercises the whole defense pipeline end to end: the PoisonFilter attack
// catalogue, the server-side UpdateValidator (typed rejection reasons,
// round-close norm-outlier revocation), cross-round quarantine/parole, and
// quarantine survival across crash-restart resume. The headline property
// mirrors faults_test: with the validator and quarantine on, an 8-site
// federation carrying one poisoning site converges bit-for-bit identical to
// a clean 7-site run, on both the in-proc and TCP transports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <unistd.h>

#include "core/logging.h"
#include "core/rng.h"
#include "flare/poison.h"
#include "flare/provision.h"
#include "flare/robust_aggregator.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/simulator.h"
#include "flare/validator.h"
#include "models/lstm_classifier.h"
#include "models/model_config.h"

namespace cppflare::flare {
namespace {

class PoisonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    dir_ = std::filesystem::temp_directory_path() /
           ("cppflare_poison_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Four weights at 5.0: far enough from every site's nudge target that both
/// the scale and the sign-flip attack produce deviation norms the robust
/// z-score separates cleanly from honest heterogeneity (hand-checked in the
/// outlier tests below).
nn::StateDict tiny_model() { return dict_of({5.0f, 5.0f, 5.0f, 5.0f}); }

bool bit_equal(const nn::StateDict& a, const nn::StateDict& b) {
  if (!a.congruent_with(b)) return false;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  for (; ia != a.entries().end(); ++ia, ++ib) {
    if (std::memcmp(ia->second.values.data(), ib->second.values.data(),
                    ia->second.values.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool any_non_finite(const nn::StateDict& d) {
  for (const auto& [name, blob] : d.entries()) {
    for (const float v : blob.values) {
      if (!std::isfinite(v)) return true;
    }
  }
  return false;
}

/// Deterministic learner (same as faults_test): nudges every weight halfway
/// toward a per-site target, so any two runs executing the same honest
/// rounds agree bit-for-bit.
class NudgeLearner : public Learner {
 public:
  NudgeLearner(std::string site, float target, std::int64_t train_ms = 0)
      : site_(std::move(site)), target_(target), train_ms_(train_ms) {}

  Dxo train(const Dxo& global, const FLContext&) override {
    core::Backoff::sleep_ms(train_ms_);
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    Dxo update(DxoKind::kWeights, updated);
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    update.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t train_ms_;
};

SimulatorRunner make_runner(SimulatorConfig config, std::int64_t train_ms = 0) {
  return SimulatorRunner(
      config, tiny_model(), std::make_unique<FedAvgAggregator>(true),
      [train_ms](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i),
                                              train_ms);
      });
}

/// The defended configuration used by the acceptance tests: full screening,
/// norm-outlier pass at 6 robust sigmas, quarantine after 2 strikes.
void arm_defenses(SimulatorConfig& config) {
  config.validator.norm_zscore_threshold = 6.0;
  config.validator.min_updates_for_outlier = 4;
  config.validator.max_sample_count = 50;
  config.reputation.quarantine_after = 2;
  config.reputation.parole_after = 2;
}

// ---------------------------------------------------------------------------
// PoisonFilter unit behavior
// ---------------------------------------------------------------------------

FLContext ctx_at(std::int64_t round, const std::string& site = "site-x") {
  FLContext ctx;
  ctx.site_name = site;
  ctx.current_round = round;
  ctx.total_rounds = 10;
  return ctx;
}

Dxo honest_update(std::vector<float> w, std::int64_t round) {
  Dxo dxo(DxoKind::kWeights, dict_of(std::move(w)));
  dxo.set_meta_int(Dxo::kMetaNumSamples, 10);
  dxo.set_meta_int(Dxo::kMetaRound, round);
  return dxo;
}

TEST_F(PoisonTest, DefaultPlanIsInertAndMetricsPassThrough) {
  PoisonFilter filter{PoisonPlan{}};
  Dxo update = honest_update({1.0f, 2.0f}, 0);
  filter.process(update, ctx_at(0));
  EXPECT_EQ(update.data().at("w").values, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(filter.stats().poisoned_updates, 0);

  PoisonPlan plan;
  plan.scale_factor = -10.0;
  PoisonFilter armed(plan);
  Dxo metrics;  // kMetrics: no weights to poison
  metrics.set_meta_double(Dxo::kMetaValidAcc, 0.9);
  armed.process(metrics, ctx_at(0));
  EXPECT_EQ(metrics.meta_double(Dxo::kMetaValidAcc, 0.0), 0.9);
  EXPECT_EQ(armed.stats().poisoned_updates, 0);
}

TEST_F(PoisonTest, ScaleAndSignFlipMutateEveryValue) {
  PoisonPlan plan;
  plan.scale_factor = -10.0;
  PoisonFilter scaler(plan);
  Dxo update = honest_update({1.0f, -2.0f}, 0);
  scaler.process(update, ctx_at(0));
  EXPECT_EQ(update.data().at("w").values, (std::vector<float>{-10.0f, 20.0f}));
  EXPECT_EQ(scaler.stats().scaled, 1);

  PoisonPlan flip;
  flip.sign_flip = true;
  PoisonFilter flipper(flip);
  Dxo update2 = honest_update({1.0f, -2.0f}, 0);
  flipper.process(update2, ctx_at(0));
  EXPECT_EQ(update2.data().at("w").values, (std::vector<float>{-1.0f, 2.0f}));
  EXPECT_EQ(flipper.stats().sign_flips, 1);
}

TEST_F(PoisonTest, NoiseIsDeterministicPerSeed) {
  PoisonPlan plan;
  plan.seed = 1234;
  plan.noise_sigma = 3.0;
  auto run = [&plan] {
    PoisonFilter filter(plan);
    Dxo update = honest_update({1.0f, 2.0f, 3.0f, 4.0f}, 0);
    filter.process(update, ctx_at(0));
    return update.data().at("w").values;
  };
  const std::vector<float> a = run();
  const std::vector<float> b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
}

TEST_F(PoisonTest, NanAndInfInjection) {
  PoisonPlan plan;
  plan.nan_prob = 1.0;
  PoisonFilter nans(plan);
  Dxo update = honest_update({1.0f, 2.0f}, 0);
  nans.process(update, ctx_at(0));
  for (const float v : update.data().at("w").values) {
    EXPECT_TRUE(std::isnan(v));
  }
  EXPECT_EQ(nans.stats().non_finite_values, 2);

  plan.inject_inf = true;
  PoisonFilter infs(plan);
  Dxo update2 = honest_update({1.0f, 2.0f}, 0);
  infs.process(update2, ctx_at(0));
  for (const float v : update2.data().at("w").values) {
    EXPECT_TRUE(std::isinf(v));
  }
}

TEST_F(PoisonTest, StaleReplayResendsOldUpdateWithOldRoundStamp) {
  PoisonPlan plan;
  plan.stale_round_lag = 1;
  PoisonFilter filter(plan);
  // Round 0: only one genuine update in history — passes through.
  Dxo round0 = honest_update({1.0f, 1.0f}, 0);
  filter.process(round0, ctx_at(0));
  EXPECT_EQ(round0.meta_int(Dxo::kMetaRound, -1), 0);
  EXPECT_EQ(round0.data().at("w").values, (std::vector<float>{1.0f, 1.0f}));
  EXPECT_EQ(filter.stats().replays, 0);
  // Round 1: replaced by the genuine round-0 update, old stamp and all.
  Dxo round1 = honest_update({9.0f, 9.0f}, 1);
  filter.process(round1, ctx_at(1));
  EXPECT_EQ(round1.meta_int(Dxo::kMetaRound, -1), 0);
  EXPECT_EQ(round1.data().at("w").values, (std::vector<float>{1.0f, 1.0f}));
  EXPECT_EQ(filter.stats().replays, 1);
}

TEST_F(PoisonTest, SampleCountLieInflatesClaim) {
  PoisonPlan plan;
  plan.sample_count_factor = 1000.0;
  PoisonFilter filter(plan);
  Dxo update = honest_update({1.0f}, 0);
  filter.process(update, ctx_at(0));
  EXPECT_EQ(update.meta_int(Dxo::kMetaNumSamples, 0), 10000);
  EXPECT_EQ(update.data().at("w").values, (std::vector<float>{1.0f}));
  EXPECT_EQ(filter.stats().sample_lies, 1);
}

TEST_F(PoisonTest, SleeperAgentWaitsForStartRound) {
  PoisonPlan plan;
  plan.scale_factor = -10.0;
  plan.start_round = 2;
  PoisonFilter filter(plan);
  for (std::int64_t round = 0; round < 2; ++round) {
    Dxo update = honest_update({1.0f}, round);
    filter.process(update, ctx_at(round));
    EXPECT_EQ(update.data().at("w").values[0], 1.0f);
  }
  Dxo update = honest_update({1.0f}, 2);
  filter.process(update, ctx_at(2));
  EXPECT_EQ(update.data().at("w").values[0], -10.0f);
  EXPECT_EQ(filter.stats().poisoned_updates, 1);
}

// ---------------------------------------------------------------------------
// UpdateValidator unit behavior
// ---------------------------------------------------------------------------

TEST_F(PoisonTest, ValidatorScreensEachDefectWithTypedReason) {
  UpdateValidator validator;
  FedAvgAggregator aggregator(true);
  const nn::StateDict global = dict_of({5.0f, 5.0f});
  validator.reset(global, 3);
  aggregator.reset(global, 3);

  // Metrics payload cannot update the model.
  Dxo metrics;
  EXPECT_EQ(validator.admit(aggregator, "s", metrics).reason,
            RejectReason::kSchemaMismatch);
  // Shape mismatch.
  Dxo wrong_shape(DxoKind::kWeights, dict_of({1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(validator.admit(aggregator, "s", wrong_shape).reason,
            RejectReason::kSchemaMismatch);
  // Non-finite value.
  Dxo nan_update(DxoKind::kWeights,
                 dict_of({std::nanf(""), 1.0f}));
  EXPECT_EQ(validator.admit(aggregator, "s", nan_update).reason,
            RejectReason::kNonFinite);
  // Stale round stamp.
  Dxo stale = honest_update({1.0f, 1.0f}, 0);
  EXPECT_EQ(validator.admit(aggregator, "s", stale).reason,
            RejectReason::kStaleRound);
  // Non-positive sample claim.
  Dxo zero_samples = honest_update({1.0f, 1.0f}, 3);
  zero_samples.set_meta_int(Dxo::kMetaNumSamples, 0);
  EXPECT_EQ(validator.admit(aggregator, "s", zero_samples).reason,
            RejectReason::kBadSampleCount);
  // Nothing reached the aggregator.
  EXPECT_EQ(aggregator.accepted_count(), 0);
  // A clean update goes through.
  EXPECT_TRUE(validator.admit(aggregator, "s", honest_update({1.0f, 1.0f}, 3)).ok());
  EXPECT_EQ(aggregator.accepted_count(), 1);
}

TEST_F(PoisonTest, ValidatorSampleCapAndDisabledBypass) {
  ValidatorConfig config;
  config.max_sample_count = 50;
  UpdateValidator validator(config);
  FedAvgAggregator aggregator(true);
  validator.reset(dict_of({5.0f}), 0);
  aggregator.reset(dict_of({5.0f}), 0);
  Dxo greedy = honest_update({1.0f}, 0);
  greedy.set_meta_int(Dxo::kMetaNumSamples, 10000);
  EXPECT_EQ(validator.admit(aggregator, "s", greedy).reason,
            RejectReason::kBadSampleCount);

  // Master switch off: even NaN passes straight to the aggregator (the
  // undefended baseline bench_poison measures).
  ValidatorConfig off;
  off.enabled = false;
  UpdateValidator bypass(off);
  bypass.reset(dict_of({5.0f}), 0);
  Dxo nan_update(DxoKind::kWeights, dict_of({std::nanf("")}));
  EXPECT_TRUE(bypass.admit(aggregator, "s2", nan_update).ok());
}

TEST_F(PoisonTest, FlagOutliersUsesRobustZScoreOverCompleteRound) {
  ValidatorConfig config;
  config.norm_zscore_threshold = 6.0;
  config.min_updates_for_outlier = 4;
  UpdateValidator validator(config);
  FedAvgAggregator aggregator(true);
  const nn::StateDict global = dict_of({5.0f, 5.0f});
  validator.reset(global, 0);
  aggregator.reset(global, 0);

  // Honest deviation norms ~ [0, 1.4, 1.4, 0.7]; attacker ~ 77.8.
  EXPECT_TRUE(validator.admit(aggregator, "a", honest_update({5.0f, 5.0f}, 0)).ok());
  EXPECT_TRUE(validator.admit(aggregator, "b", honest_update({4.0f, 4.0f}, 0)).ok());
  EXPECT_TRUE(validator.admit(aggregator, "c", honest_update({6.0f, 6.0f}, 0)).ok());
  EXPECT_TRUE(validator.admit(aggregator, "d", honest_update({5.5f, 5.5f}, 0)).ok());
  EXPECT_TRUE(validator.admit(aggregator, "evil",
                              honest_update({-50.0f, -50.0f}, 0)).ok());

  const auto flagged = validator.flag_outliers();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].first, "evil");
  EXPECT_EQ(flagged[0].second.reason, RejectReason::kNormOutlier);

  // judge_norm applies the same statistics to a scored (non-admitted) norm.
  EXPECT_TRUE(validator.judge_norm(1.0).ok());
  EXPECT_EQ(validator.judge_norm(80.0).reason, RejectReason::kNormOutlier);
}

TEST_F(PoisonTest, OutlierPassSkipsSmallPopulations) {
  ValidatorConfig config;
  config.norm_zscore_threshold = 6.0;
  config.min_updates_for_outlier = 4;
  UpdateValidator validator(config);
  FedAvgAggregator aggregator(true);
  validator.reset(dict_of({5.0f}), 0);
  aggregator.reset(dict_of({5.0f}), 0);
  EXPECT_TRUE(validator.admit(aggregator, "a", honest_update({5.0f}, 0)).ok());
  EXPECT_TRUE(validator.admit(aggregator, "evil", honest_update({-99.0f}, 0)).ok());
  EXPECT_TRUE(validator.flag_outliers().empty());  // population of 2 < 4
}

// ---------------------------------------------------------------------------
// SiteReputation unit behavior
// ---------------------------------------------------------------------------

TEST_F(PoisonTest, ReputationQuarantinesAndParoles) {
  SiteReputation rep(ReputationConfig{2, 2});
  EXPECT_FALSE(rep.record_rejection("s"));  // strike 1
  EXPECT_FALSE(rep.quarantined("s"));
  EXPECT_TRUE(rep.record_rejection("s"));  // strike 2 -> quarantined
  EXPECT_TRUE(rep.quarantined("s"));
  EXPECT_EQ(rep.quarantined_count(), 1);
  EXPECT_FALSE(rep.record_clean("s"));  // parole streak 1
  EXPECT_TRUE(rep.quarantined("s"));
  EXPECT_TRUE(rep.record_clean("s"));  // streak 2 -> paroled
  EXPECT_FALSE(rep.quarantined("s"));
  EXPECT_EQ(rep.standings().at("s").times_quarantined, 1);
  EXPECT_EQ(rep.standings().at("s").total_rejections, 2);
  // A rejection mid-streak resets parole progress.
  EXPECT_FALSE(rep.record_rejection("t"));
  EXPECT_TRUE(rep.record_rejection("t"));
  EXPECT_FALSE(rep.record_clean("t"));
  EXPECT_FALSE(rep.record_rejection("t"));  // already quarantined: no re-trigger
  EXPECT_EQ(rep.standings().at("t").clean_streak, 0);
  EXPECT_TRUE(rep.quarantined("t"));
  // An accepted round resets strikes for a healthy site.
  EXPECT_FALSE(rep.record_rejection("u"));
  EXPECT_FALSE(rep.record_clean("u"));
  EXPECT_FALSE(rep.record_rejection("u"));  // strike 1 again, not 2
  EXPECT_FALSE(rep.quarantined("u"));
}

TEST_F(PoisonTest, ReputationDisabledNeverQuarantines) {
  SiteReputation rep{ReputationConfig{}};  // quarantine_after = 0
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(rep.record_rejection("s"));
  EXPECT_FALSE(rep.quarantined("s"));
  EXPECT_EQ(rep.standings().at("s").total_rejections, 10);
}

// ---------------------------------------------------------------------------
// Server integration: typed acks, revocation, quarantine, parole
// ---------------------------------------------------------------------------

/// Manual-dispatcher harness (same shape as faults_test): drives the server
/// protocol one sealed frame at a time with full control over payloads.
class ManualFederation {
 public:
  ManualFederation(ServerConfig config, std::int64_t num_sites,
                   nn::StateDict initial = dict_of({5.0f, 5.0f}))
      : job_id_(config.job_id),
        registry_(Provisioner(config.job_id, 17).provision_sites(num_sites)),
        server_(std::make_unique<FederatedServer>(
            config, registry_, std::move(initial),
            std::make_unique<FedAvgAggregator>(true))),
        connection_(server_->async_dispatcher()) {}

  FederatedServer& server() { return *server_; }

  std::vector<std::uint8_t> call(const std::string& site,
                                 const std::vector<std::uint8_t>& frame) {
    const Credential& cred = registry_.at(site);
    const auto response =
        connection_.call(seal(cred.name, cred.secret, seq_[site].next(), frame,
                              job_id_));
    const Envelope env = open(response, cred.secret);
    return {env.payload.begin(), env.payload.end()};
  }

  void register_site(const std::string& site) {
    const RegisterAck ack = decode_register_ack(
        call(site, pack(RegisterRequest{site, registry_.at(site).token})));
    EXPECT_TRUE(ack.accepted);
    sessions_[site] = ack.session_id;
  }

  void register_all(std::int64_t num_sites) {
    for (std::int64_t i = 0; i < num_sites; ++i) {
      register_site("site-" + std::to_string(i + 1));
    }
  }

  TaskMessage get_task(const std::string& site) {
    return decode_task(call(site, pack(GetTaskRequest{sessions_.at(site)})));
  }

  SubmitAck submit_dxo(const std::string& site, std::int64_t round, Dxo dxo) {
    SubmitUpdateRequest req;
    req.session_id = sessions_.at(site);
    req.round = round;
    req.payload = std::move(dxo);
    return decode_submit_ack(call(site, pack(req)));
  }

  SubmitAck submit(const std::string& site, std::int64_t round,
                   std::vector<float> weights) {
    return submit_dxo(site, round, honest_update(std::move(weights), round));
  }

 private:
  std::string job_id_;
  std::map<std::string, Credential> registry_;
  std::unique_ptr<FederatedServer> server_;
  InProcConnection connection_;
  std::map<std::string, SequenceSource> seq_;
  std::map<std::string, std::string> sessions_;
};

TEST_F(PoisonTest, ServerAcksCarryTypedRejectReasons) {
  ServerConfig config;
  config.job_id = "reasons-job";
  config.num_rounds = 2;
  config.expected_clients = 2;
  config.min_clients = 2;
  ManualFederation fed(config, 2);
  fed.register_all(2);

  // Non-finite payload.
  const SubmitAck nan_ack =
      fed.submit_dxo("site-1", 0,
                     Dxo(DxoKind::kWeights, dict_of({std::nanf(""), 1.0f})));
  EXPECT_FALSE(nan_ack.accepted);
  EXPECT_EQ(nan_ack.reason, RejectReason::kNonFinite);

  // A resend of the rejected contribution gets the identical verdict
  // (at-least-once delivery, idempotent rejection acks).
  const SubmitAck resent =
      fed.submit_dxo("site-1", 0,
                     Dxo(DxoKind::kWeights, dict_of({std::nanf(""), 1.0f})));
  EXPECT_EQ(resent.reason, RejectReason::kNonFinite);
  EXPECT_EQ(resent.message, nan_ack.message);

  // Stale meta stamp on an otherwise-current submission.
  Dxo stale = honest_update({1.0f, 1.0f}, 0);
  stale.set_meta_int(Dxo::kMetaRound, 7);
  const SubmitAck stale_ack = fed.submit_dxo("site-2", 0, std::move(stale));
  EXPECT_FALSE(stale_ack.accepted);
  EXPECT_EQ(stale_ack.reason, RejectReason::kStaleRound);

  // Both sites resolved by rejection: the round closes with zero accepted
  // contributions, which aborts the run rather than averaging nothing.
  EXPECT_TRUE(fed.server().aborted());
  EXPECT_NE(fed.server().abort_reason().find("rejected"), std::string::npos);
  const SubmitAck dead = fed.submit("site-1", 0, {1.0f, 1.0f});
  EXPECT_EQ(dead.reason, RejectReason::kRunOver);
}

TEST_F(PoisonTest, RejectedSitesDoNotStallTheRound) {
  ServerConfig config;
  config.job_id = "no-stall-job";
  config.num_rounds = 1;
  config.expected_clients = 3;
  config.min_clients = 3;
  ManualFederation fed(config, 3);
  fed.register_all(3);
  EXPECT_TRUE(fed.submit("site-1", 0, {1.0f, 1.0f}).accepted);
  EXPECT_EQ(fed.submit_dxo("site-2", 0,
                           Dxo(DxoKind::kWeights, dict_of({std::nanf(""), 0.0f})))
                .reason,
            RejectReason::kNonFinite);
  // site-2 is resolved (rejected); site-3's acceptance completes the round
  // without any deadline machinery.
  EXPECT_FALSE(fed.server().finished());
  EXPECT_TRUE(fed.submit("site-3", 0, {3.0f, 3.0f}).accepted);
  EXPECT_TRUE(fed.server().finished());
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_EQ(history[0].rejected_updates, 1);
  EXPECT_EQ(history[0].rejections_by_reason.at("non_finite"), 1);
}

TEST_F(PoisonTest, NormOutlierRevokedAtRoundClose) {
  ServerConfig config;
  config.job_id = "outlier-job";
  config.num_rounds = 1;
  config.expected_clients = 5;
  config.min_clients = 5;
  config.validator.norm_zscore_threshold = 6.0;
  config.validator.min_updates_for_outlier = 4;
  ManualFederation fed(config, 5);
  fed.register_all(5);
  // Everyone is admitted at submit time — the outlier verdict needs the
  // round's complete norm population.
  EXPECT_TRUE(fed.submit("site-1", 0, {5.0f, 5.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-2", 0, {4.0f, 4.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-3", 0, {6.0f, 6.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-4", 0, {5.5f, 5.5f}).accepted);
  EXPECT_TRUE(fed.submit("site-5", 0, {-50.0f, -50.0f}).accepted);
  EXPECT_TRUE(fed.server().finished());
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  // The attacker was revoked before aggregation: 4 contributions averaged.
  EXPECT_EQ(history[0].num_contributions, 4);
  EXPECT_EQ(history[0].rejected_updates, 1);
  EXPECT_EQ(history[0].rejections_by_reason.at("norm_outlier"), 1);
  EXPECT_EQ(fed.server().global_model().at("w").values[0], 5.125f);
  EXPECT_EQ(fed.server().reputation().at("site-5").strikes, 1);
}

TEST_F(PoisonTest, QuarantineScoringAndParoleReadmitsCleanSite) {
  ServerConfig config;
  config.job_id = "parole-job";
  config.num_rounds = 5;
  config.expected_clients = 2;
  config.min_clients = 1;
  config.reputation.quarantine_after = 1;
  config.reputation.parole_after = 2;
  ManualFederation fed(config, 2);
  fed.register_all(2);

  // Round 0: site-2 submits NaN -> strike 1 -> quarantined on the spot.
  const SubmitAck bad = fed.submit_dxo(
      "site-2", 0, Dxo(DxoKind::kWeights, dict_of({std::nanf(""), 0.0f})));
  EXPECT_EQ(bad.reason, RejectReason::kNonFinite);
  EXPECT_EQ(fed.server().quarantined_sites(),
            (std::vector<std::string>{"site-2"}));
  EXPECT_TRUE(fed.submit("site-1", 0, {4.0f, 4.0f}).accepted);

  // Rounds 1-2: site-2 is clean while quarantined. Its uploads are scored
  // (kQuarantined ack), excluded from aggregation, and grow the parole
  // streak; the global model follows site-1 alone.
  for (std::int64_t round = 1; round <= 2; ++round) {
    const SubmitAck scored = fed.submit("site-2", round, {5.0f, 5.0f});
    EXPECT_FALSE(scored.accepted);
    EXPECT_EQ(scored.reason, RejectReason::kQuarantined);
    EXPECT_TRUE(fed.submit("site-1", round, {4.0f, 4.0f}).accepted);
    EXPECT_EQ(fed.server().history().back().num_contributions, 1);
  }
  // Parole landed at round 2's close; round 3 re-admits site-2.
  EXPECT_TRUE(fed.server().quarantined_sites().empty());
  EXPECT_EQ(fed.get_task("site-2").task, TaskKind::kTrain);
  EXPECT_TRUE(fed.submit("site-2", 3, {5.0f, 5.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-1", 3, {4.0f, 4.0f}).accepted);
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[3].num_contributions, 2);
  EXPECT_EQ(history[1].rejections_by_reason.at("quarantined"), 1);
  EXPECT_EQ(history[1].quarantined_sites, 1);
  EXPECT_EQ(history[3].quarantined_sites, 0);
  EXPECT_EQ(fed.server().reputation().at("site-2").times_quarantined, 1);
}

TEST_F(PoisonTest, QuarantinedSiteStaysLockedUpWhileStillAttacking) {
  ServerConfig config;
  config.job_id = "locked-job";
  config.num_rounds = 4;
  config.expected_clients = 2;
  config.min_clients = 1;
  config.reputation.quarantine_after = 1;
  config.reputation.parole_after = 1;
  ManualFederation fed(config, 2);
  fed.register_all(2);
  for (std::int64_t round = 0; round < 4; ++round) {
    const SubmitAck ack = fed.submit_dxo(
        "site-2", round,
        Dxo(DxoKind::kWeights, dict_of({std::nanf(""), 0.0f})));
    EXPECT_FALSE(ack.accepted);
    EXPECT_EQ(ack.reason, round == 0 ? RejectReason::kNonFinite
                                     : RejectReason::kQuarantined);
    EXPECT_TRUE(fed.submit("site-1", round, {4.0f, 4.0f}).accepted);
  }
  // Scored uploads kept failing the screen: no parole.
  EXPECT_EQ(fed.server().quarantined_sites(),
            (std::vector<std::string>{"site-2"}));
  EXPECT_TRUE(fed.server().finished());
}

// ---------------------------------------------------------------------------
// Undefended baseline: every attack measurably corrupts plain FedAvg
// ---------------------------------------------------------------------------

TEST_F(PoisonTest, EveryAttackCorruptsUndefendedFedAvg) {
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 4;
  config.validator.enabled = false;  // no defenses at all

  SimulatorRunner clean = make_runner(config);
  const nn::StateDict reference = clean.run().final_model;

  struct Attack {
    const char* name;
    PoisonPlan plan;
  };
  std::vector<Attack> attacks(6);
  attacks[0].name = "scale";
  attacks[0].plan.scale_factor = -10.0;
  attacks[1].name = "sign_flip";
  attacks[1].plan.sign_flip = true;
  attacks[2].name = "noise";
  attacks[2].plan.noise_sigma = 20.0;
  attacks[3].name = "nan";
  attacks[3].plan.nan_prob = 1.0;
  attacks[4].name = "stale_replay";
  attacks[4].plan.stale_round_lag = 1;
  attacks[5].name = "sample_lie";
  attacks[5].plan.sample_count_factor = 1000.0;

  for (const Attack& attack : attacks) {
    SCOPED_TRACE(attack.name);
    SimulatorRunner runner = make_runner(config);
    runner.set_poison_planner(
        [&attack](std::int64_t index,
                  const std::string&) -> std::optional<PoisonPlan> {
          if (index != 3) return std::nullopt;
          return attack.plan;
        });
    const SimulationResult result = runner.run();
    EXPECT_FALSE(result.aborted);
    // The attack landed: the global model is NOT the honest one.
    EXPECT_FALSE(bit_equal(reference, result.final_model));
    if (attack.plan.nan_prob > 0.0) {
      // NaN through an unguarded mean destroys the model outright.
      EXPECT_TRUE(any_non_finite(result.final_model));
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance bar: defended 8-site run with one adversary converges
// bit-for-bit to a clean 7-site run, on both transports
// ---------------------------------------------------------------------------

struct AcceptanceAttack {
  const char* name;
  PoisonPlan plan;
  const char* expect_reason;  // recorded on round 0's telemetry
};

std::vector<AcceptanceAttack> acceptance_attacks() {
  std::vector<AcceptanceAttack> attacks(5);
  attacks[0].name = "scale";
  attacks[0].plan.scale_factor = -10.0;
  attacks[0].expect_reason = "norm_outlier";
  attacks[1].name = "sign_flip";
  attacks[1].plan.sign_flip = true;
  attacks[1].expect_reason = "norm_outlier";
  attacks[2].name = "noise";
  attacks[2].plan.noise_sigma = 20.0;
  attacks[2].expect_reason = "norm_outlier";
  attacks[3].name = "nan";
  attacks[3].plan.nan_prob = 1.0;
  attacks[3].expect_reason = "non_finite";
  attacks[4].name = "sample_lie";
  attacks[4].plan.sample_count_factor = 1000.0;
  attacks[4].expect_reason = "bad_sample_count";
  return attacks;
}

void expect_defended_run_matches_clean_reference(bool use_tcp,
                                                 const AcceptanceAttack& attack,
                                                 const nn::StateDict& reference) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 4;
  config.use_tcp = use_tcp;
  arm_defenses(config);
  SimulatorRunner runner = make_runner(config);
  runner.set_poison_planner(
      [&attack](std::int64_t index,
                const std::string&) -> std::optional<PoisonPlan> {
        if (index != 7) return std::nullopt;  // site-8 is the adversary
        return attack.plan;
      });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.quarantined_sites, (std::vector<std::string>{"site-8"}));
  ASSERT_EQ(result.history.size(), 4u);
  // Round 0: the poisoned update was screened out or revoked; the 7 honest
  // contributions aggregated.
  EXPECT_EQ(result.history[0].num_contributions, 7);
  EXPECT_EQ(result.history[0].rejections_by_reason.at(attack.expect_reason), 1);
  // Two strikes quarantine the site; it stays quarantined to the end.
  EXPECT_EQ(result.history[1].quarantined_sites, 1);
  EXPECT_EQ(result.history[3].quarantined_sites, 1);
  // The headline property: bit-for-bit the clean 7-site model.
  EXPECT_TRUE(bit_equal(reference, result.final_model));
}

TEST_F(PoisonTest, DefendedEightSiteRunMatchesCleanSevenSiteRunInProc) {
  SimulatorConfig clean_config;
  clean_config.num_clients = 7;
  clean_config.num_rounds = 4;
  SimulatorRunner clean = make_runner(clean_config);
  const nn::StateDict reference = clean.run().final_model;

  for (const AcceptanceAttack& attack : acceptance_attacks()) {
    SCOPED_TRACE(attack.name);
    expect_defended_run_matches_clean_reference(/*use_tcp=*/false, attack,
                                                reference);
  }
}

TEST_F(PoisonTest, DefendedEightSiteRunMatchesCleanSevenSiteRunOverTcp) {
  SimulatorConfig clean_config;
  clean_config.num_clients = 7;
  clean_config.num_rounds = 4;
  SimulatorRunner clean = make_runner(clean_config);
  const nn::StateDict reference = clean.run().final_model;

  const auto attacks = acceptance_attacks();
  for (const std::size_t idx : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE(attacks[idx].name);
    expect_defended_run_matches_clean_reference(/*use_tcp=*/true, attacks[idx],
                                                reference);
  }
}

TEST_F(PoisonTest, StaleReplayAttackIsRejectedAndQuarantined) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 5;
  arm_defenses(config);
  SimulatorRunner runner = make_runner(config);
  runner.set_poison_planner(
      [](std::int64_t index, const std::string&) -> std::optional<PoisonPlan> {
        if (index != 7) return std::nullopt;
        PoisonPlan plan;
        plan.stale_round_lag = 1;
        return plan;
      });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  // Round 0 passes through genuinely (no history to replay yet); from round
  // 1 every submission is the previous round's update with its old stamp.
  EXPECT_EQ(result.history[0].num_contributions, 8);
  EXPECT_EQ(result.history[1].rejections_by_reason.at("stale_round"), 1);
  EXPECT_EQ(result.history[2].rejections_by_reason.at("stale_round"), 1);
  // Two stale strikes -> quarantined for the rest of the run.
  EXPECT_EQ(result.quarantined_sites, (std::vector<std::string>{"site-8"}));
  EXPECT_FALSE(any_non_finite(result.final_model));
}

TEST_F(PoisonTest, TwoAdversariesOfEightAreBothQuarantined) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 4;
  arm_defenses(config);

  SimulatorConfig clean_config;
  clean_config.num_clients = 6;
  clean_config.num_rounds = 4;
  SimulatorRunner clean = make_runner(clean_config);
  const nn::StateDict reference = clean.run().final_model;

  SimulatorRunner runner = make_runner(config);
  runner.set_poison_planner(
      [](std::int64_t index, const std::string&) -> std::optional<PoisonPlan> {
        PoisonPlan plan;
        if (index == 6) {
          plan.nan_prob = 1.0;  // site-7: NaN bomber
          return plan;
        }
        if (index == 7) {
          plan.scale_factor = -10.0;  // site-8: model replacement
          return plan;
        }
        return std::nullopt;
      });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.quarantined_sites,
            (std::vector<std::string>{"site-7", "site-8"}));
  EXPECT_EQ(result.history[0].num_contributions, 6);
  EXPECT_TRUE(bit_equal(reference, result.final_model));
}

// ---------------------------------------------------------------------------
// Quarantine survives crash-restart resume (checkpoint v3)
// ---------------------------------------------------------------------------

TEST_F(PoisonTest, QuarantineSurvivesCrashRestartResume) {
  const std::string checkpoint = path("quarantine_resume.bin");
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 6;
  arm_defenses(config);
  const auto adversary_planner =
      [](std::int64_t index, const std::string&) -> std::optional<PoisonPlan> {
    if (index != 3) return std::nullopt;
    PoisonPlan plan;
    plan.nan_prob = 1.0;
    return plan;
  };

  // Reference: the 3 honest sites, never interrupted. The defended 4-site
  // run aggregates exactly these sites every round.
  SimulatorConfig clean_config;
  clean_config.num_clients = 3;
  clean_config.num_rounds = 6;
  SimulatorRunner clean = make_runner(clean_config);
  const nn::StateDict reference = clean.run().final_model;

  // Phase 1: run defended with persistence, kill after round 3 (site-4 was
  // quarantined at round 1, so the checkpoint carries the quarantine).
  config.persist_path = checkpoint;
  {
    SimulatorRunner runner = make_runner(config, /*train_ms=*/10);
    runner.set_poison_planner(adversary_planner);
    std::promise<void> round_three_done;
    runner.server().add_round_observer(
        [&round_three_done](std::int64_t round, const nn::StateDict&,
                            const RoundMetrics&) {
          if (round == 3) round_three_done.set_value();
        });
    std::thread killer([&runner, &round_three_done] {
      round_three_done.get_future().wait();
      runner.server().abort("operator kill");
    });
    const SimulationResult first = runner.run();
    killer.join();
    ASSERT_TRUE(first.aborted);
    ASSERT_GE(first.history.size(), 4u);
    ASSERT_LT(first.history.size(), 6u);
    EXPECT_EQ(first.quarantined_sites, (std::vector<std::string>{"site-4"}));
  }

  // Phase 2: a fresh server resumes. The quarantine is restored from the
  // checkpoint BEFORE any traffic — site-4 never re-enters the quorum.
  config.resume = true;
  SimulatorRunner resumed = make_runner(config);
  resumed.set_poison_planner(adversary_planner);
  EXPECT_EQ(resumed.server().quarantined_sites(),
            (std::vector<std::string>{"site-4"}));
  const SimulationResult second = resumed.run();
  EXPECT_FALSE(second.aborted);
  ASSERT_EQ(second.history.size(), 6u);
  EXPECT_EQ(second.quarantined_sites, (std::vector<std::string>{"site-4"}));
  EXPECT_TRUE(bit_equal(reference, second.final_model));
}

// ---------------------------------------------------------------------------
// Validator + robust aggregation interplay
// ---------------------------------------------------------------------------

TEST_F(PoisonTest, MedianAggregatorSurvivesNaNAttackEvenUndefended) {
  SimulatorConfig config;
  config.num_clients = 5;
  config.num_rounds = 3;
  config.validator.enabled = false;
  SimulatorRunner runner(
      config, tiny_model(), std::make_unique<MedianAggregator>(),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i));
      });
  runner.set_poison_planner(
      [](std::int64_t index, const std::string&) -> std::optional<PoisonPlan> {
        if (index != 4) return std::nullopt;
        PoisonPlan plan;
        plan.nan_prob = 1.0;
        return plan;
      });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  // NaN values sort past every finite one (nan_last_less): with 1 poisoned
  // site of 5 the elementwise median stays finite.
  EXPECT_FALSE(any_non_finite(result.final_model));
}

// ---- the fused screen against the two-pass rule ---------------------------

/// The screen as two passes — a finite scan, then the deviation norm as
/// one sequential sum, here in long double — with the verdicts in the
/// validator's order. The fused pass must give the same reason and detail,
/// and the same norm up to its last bits.
Verdict two_pass_rule(const ValidatorConfig& config, const nn::StateDict& global,
                      std::int64_t round, const Dxo& dxo, long double* norm) {
  *norm = 0.0L;
  const bool congruent = dxo.data().congruent_with(global);
  if (config.check_schema) {
    if (dxo.kind() == DxoKind::kMetrics) {
      return Verdict{RejectReason::kSchemaMismatch,
                     "metrics-only payload cannot update the model"};
    }
    if (!congruent) {
      return Verdict{RejectReason::kSchemaMismatch,
                     "keys/shapes incongruent with the global model"};
    }
  }
  if (config.check_finite) {
    for (const auto& [name, blob] : dxo.data().entries()) {
      for (const float v : blob.values) {
        if (!std::isfinite(v)) {
          return Verdict{RejectReason::kNonFinite, "payload contains NaN or Inf"};
        }
      }
    }
  }
  if (config.check_round_freshness && dxo.has_meta(Dxo::kMetaRound)) {
    const std::int64_t claimed = dxo.meta_int(Dxo::kMetaRound, round);
    if (claimed != round) {
      return Verdict{RejectReason::kStaleRound,
                     "update stamped for round " + std::to_string(claimed) +
                         ", round " + std::to_string(round) + " is open"};
    }
  }
  const bool diff = dxo.kind() == DxoKind::kWeightDiff;
  long double sq = 0.0L;
  for (const auto& [name, blob] : dxo.data().entries()) {
    const auto* base = diff ? nullptr : &global.at(name).values;
    for (std::size_t i = 0; i < blob.values.size(); ++i) {
      const long double d = static_cast<long double>(blob.values[i]) -
                            (base ? static_cast<long double>((*base)[i]) : 0.0L);
      sq += d * d;
    }
  }
  *norm = std::sqrt(sq);
  return Verdict{};
}

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `shape`'s keys and shapes, values uniform in [-scale, scale) from `seed`.
nn::StateDict seeded_like(const nn::StateDict& shape, std::uint64_t seed,
                          float scale) {
  nn::StateDict out = shape;
  std::uint64_t state = seed;
  for (auto& [name, blob] : out.entries()) {
    for (float& v : blob.values) {
      v = scale * static_cast<float>(static_cast<double>(mix(state) >> 40) * 0x1p-23 - 1.0);
    }
  }
  return out;
}

/// The paper's BERT layer names and shapes: 2,472,082 floats in 200 tensors.
nn::StateDict bert_shape() {
  core::Rng rng(1);
  return models::make_classifier(models::ModelConfig::bert(335, 64), rng)
      ->state_dict();
}

TEST(UpdateValidator, FusedScreenMatchesTheTwoPassRule) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  // The first and the last tensor (in map order) end in a 3-element tail
  // past their last full group of 8.
  nn::StateDict shape;
  const std::int64_t sizes[] = {1027, 5, 64, 2051};
  for (std::size_t t = 0; t < 4; ++t) {
    shape.insert("t" + std::to_string(t),
                 {{sizes[t]}, std::vector<float>(static_cast<std::size_t>(sizes[t]))});
  }
  const nn::StateDict global = seeded_like(shape, 7, 1.0f);
  const std::vector<std::string> ends = {shape.entries().begin()->first,
                                         shape.entries().rbegin()->first};
  const float bad_values[] = {std::nanf(""), INFINITY, -INFINITY};
  for (const DxoKind kind : {DxoKind::kWeights, DxoKind::kWeightDiff}) {
    for (const bool check_finite : {true, false}) {
      ValidatorConfig config;
      config.check_finite = check_finite;
      UpdateValidator validator(config);
      validator.reset(global, 3);
      for (const std::string& tensor : ends) {
        const std::size_t n = shape.at(tensor).values.size();
        for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1, n - n % 8}) {
          for (const float bad : bad_values) {
            for (const std::int64_t stamp : {3, 2}) {
              Dxo dxo(kind, seeded_like(shape, 11, 0.5f));
              dxo.data().at(tensor).values[pos] = bad;
              dxo.set_meta_int(Dxo::kMetaRound, stamp);
              long double expected_norm = 0.0L;
              const Verdict expected =
                  two_pass_rule(config, global, 3, dxo, &expected_norm);
              double norm = -1.0;
              const Verdict got = validator.score("site-1", dxo, &norm);
              SCOPED_TRACE(tensor + "[" + std::to_string(pos) + "]=" +
                           std::to_string(bad) + " finite_check=" +
                           std::to_string(check_finite));
              EXPECT_EQ(got.reason, expected.reason);
              EXPECT_EQ(got.detail, expected.detail);
              if (got.ok()) {
                EXPECT_FALSE(std::isfinite(norm));
              } else {
                EXPECT_EQ(norm, 0.0);
              }
            }
          }
        }
      }
    }
  }

  // Finite payloads: the norm against the long double reference, and a
  // pinned golden on the BERT-shaped payload (the lane order is part of
  // the contract; every build must give these bits).
  const nn::StateDict bert = bert_shape();
  ASSERT_EQ(bert.total_numel(), 2472082);
  const nn::StateDict bert_global = seeded_like(bert, 501, 0.1f);
  const double golden[] = {0x1.00c4f7a2e68e7p+7, 0x1.6b2af14570a99p+6};
  std::size_t k = 0;
  for (const DxoKind kind : {DxoKind::kWeights, DxoKind::kWeightDiff}) {
    UpdateValidator validator;
    validator.reset(bert_global, 0);
    const Dxo dxo(kind, seeded_like(bert, 502, 0.1f));
    long double expected_norm = 0.0L;
    ASSERT_TRUE(two_pass_rule(validator.config(), bert_global, 0, dxo,
                              &expected_norm)
                    .ok());
    double norm = 0.0;
    ASSERT_TRUE(validator.score("site-1", dxo, &norm).ok());
    EXPECT_LE(std::fabs(static_cast<long double>(norm) - expected_norm),
              1e-12L * expected_norm);
    EXPECT_EQ(norm, golden[k++]);
  }
  core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
}

}  // namespace
}  // namespace cppflare::flare
