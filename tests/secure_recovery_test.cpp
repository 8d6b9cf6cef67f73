// Dropout-recoverable secure aggregation (DESIGN.md §14).
//
// The acceptance bar: a masked 8-site federation with one site dropped
// mid-round completes — no abort, no corrupted aggregate — and publishes a
// model bitwise-equal to an unmasked run over the same surviving sites, on
// the in-process, TCP (including fault-injected recovery traffic), and
// multiplexed transports. The wire-level half drives the server one sealed
// frame at a time to pin down the recovery state machine itself: the
// UnmaskRequest/UnmaskResponse exchange, the round freeze, the demotion
// cascade, and the typed aborts when recovery falls below quorum.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/backoff.h"
#include "core/error.h"
#include "core/logging.h"
#include "flare/messages.h"
#include "flare/observability.h"
#include "flare/provision.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

class SecureRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

nn::StateDict tiny_model() { return dict_of({0.0f, 0.0f, 0.0f, 0.0f}); }

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

/// Counters are created on first increment, so a clean counter (e.g. zero
/// demotions) is legitimately absent from the snapshot.
std::int64_t counter_or_zero(const core::MetricSnapshot& snapshot,
                             const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Constant-output learner whose values sit on the fixed-point grid, so a
/// masked aggregate decodes to exactly the float sum. A crash_round >= 0
/// makes the site die mid-round: the learner throws when asked to train
/// that round, the client thread (or site state machine) fails, and the
/// server must close the round without the site's contribution.
class CrashyConstLearner : public Learner {
 public:
  CrashyConstLearner(std::string site, float value, std::int64_t crash_round)
      : site_(std::move(site)), value_(value), crash_round_(crash_round) {}

  Dxo train(const Dxo& global, const FLContext& ctx) override {
    if (crash_round_ >= 0 && ctx.current_round >= crash_round_) {
      throw Error("site crashed mid-round " + std::to_string(ctx.current_round));
    }
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v = value_;
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
  float value_;
  std::int64_t crash_round_;
};

/// Site values 0.5*i are grid-exact; the survivor mean over sites 1..7
/// (values 0 .. 3.0) is 10.5/7 = 1.5 — also exact, so masked and unmasked
/// runs cannot diverge through rounding.
SimulatorRunner make_crash_runner(SimulatorConfig config,
                                  std::int64_t crash_index,
                                  std::int64_t crash_round) {
  return SimulatorRunner(
      config, tiny_model(), std::make_unique<FedAvgAggregator>(false),
      [crash_index, crash_round](std::int64_t i, const std::string& name) {
        return std::make_shared<CrashyConstLearner>(
            name, 0.5f * static_cast<float>(i),
            i == crash_index ? crash_round : -1);
      });
}

SimulatorConfig drop_config(bool masked) {
  SimulatorConfig config;
  config.job_id = "recovery-sim";
  config.num_clients = 8;
  config.num_rounds = 4;
  config.min_clients = 4;
  config.round_deadline_ms = 500;
  config.secure_agg.enabled = masked;
  config.secure_agg.dealer_seed = 99;
  return config;
}

// ---------------------------------------------------------------------------
// End-to-end: one site dropped mid-round, every transport
// ---------------------------------------------------------------------------

TEST_F(SecureRecoveryTest, ThreadedDropMidRoundMatchesUnmaskedSurvivors) {
  // site-8 dies at round 2 of 4: rounds 2 and 3 close on the deadline with
  // 7 survivors, and the masked run detours through mask recovery each time.
  SimulatorRunner plain = make_crash_runner(drop_config(false), 7, 2);
  const SimulationResult reference = plain.run();
  ASSERT_FALSE(reference.aborted);
  EXPECT_EQ(reference.failed_sites, (std::vector<std::string>{"site-8"}));

  SimulatorRunner masked = make_crash_runner(drop_config(true), 7, 2);
  const SimulationResult secured = masked.run();
  ASSERT_FALSE(secured.aborted) << secured.abort_reason;
  EXPECT_EQ(secured.abort_code, AbortCode::kNone);
  EXPECT_EQ(secured.failed_sites, (std::vector<std::string>{"site-8"}));
  ASSERT_EQ(secured.history.size(), 4u);
  EXPECT_EQ(secured.history[2].num_contributions, 7);
  EXPECT_TRUE(secured.history[2].deadline_fired);
  EXPECT_EQ(secured.history[3].num_contributions, 7);

  // Rounds 2 and 3 each recovered against {site-8} in a single wave: one
  // summed mask share per survivor, no demotions.
  EXPECT_EQ(counter_or_zero(secured.metrics, metric_names::kServerRecoveryRounds), 2);
  EXPECT_EQ(counter_or_zero(secured.metrics, metric_names::kServerUnmaskShares), 14);
  EXPECT_EQ(counter_or_zero(secured.metrics, metric_names::kServerRecoveryDemotions), 0);

  EXPECT_TRUE(bit_equal(reference.final_model, secured.final_model));
}

TEST_F(SecureRecoveryTest, TcpDropMidRoundMatchesUnmaskedSurvivors) {
  SimulatorConfig plain_config = drop_config(false);
  plain_config.use_tcp = true;
  SimulatorRunner plain = make_crash_runner(plain_config, 7, 2);
  const SimulationResult reference = plain.run();
  ASSERT_FALSE(reference.aborted);

  SimulatorConfig masked_config = drop_config(true);
  masked_config.use_tcp = true;
  SimulatorRunner masked = make_crash_runner(masked_config, 7, 2);
  const SimulationResult secured = masked.run();
  ASSERT_FALSE(secured.aborted) << secured.abort_reason;
  EXPECT_EQ(secured.failed_sites, (std::vector<std::string>{"site-8"}));
  EXPECT_GE(counter_or_zero(secured.metrics, metric_names::kServerRecoveryRounds), 1);
  EXPECT_TRUE(bit_equal(reference.final_model, secured.final_model));
}

TEST_F(SecureRecoveryTest, TcpRecoveryTrafficSurvivesFaultInjection) {
  // The unmask exchange rides the same retry/backoff machinery as every
  // other call: drops, delays, duplicates and corruptions on the surviving
  // sites' links (which carry the recovery traffic) must not change the
  // published bits.
  SimulatorConfig plain_config = drop_config(false);
  plain_config.use_tcp = true;
  SimulatorRunner plain = make_crash_runner(plain_config, 7, 2);
  const SimulationResult reference = plain.run();
  ASSERT_FALSE(reference.aborted);

  SimulatorConfig masked_config = drop_config(true);
  masked_config.use_tcp = true;
  SimulatorRunner masked = make_crash_runner(masked_config, 7, 2);
  masked.set_fault_planner(
      [](std::int64_t index, const std::string&,
         std::int64_t incarnation) -> std::optional<FaultPlan> {
        if (index == 7) return std::nullopt;  // the crash site dies honestly
        FaultPlan plan;
        plan.seed = 0x5ec0 + static_cast<std::uint64_t>(index) * 7919 +
                    static_cast<std::uint64_t>(incarnation);
        plan.drop_prob = 0.08;
        plan.delay_prob = 0.1;
        plan.delay_ms = 2;
        plan.duplicate_prob = 0.08;
        plan.corrupt_prob = 0.05;
        return plan;
      });
  const SimulationResult secured = masked.run();
  ASSERT_FALSE(secured.aborted) << secured.abort_reason;
  EXPECT_EQ(secured.failed_sites, (std::vector<std::string>{"site-8"}));
  EXPECT_GE(counter_or_zero(secured.metrics, metric_names::kServerRecoveryRounds), 1);
  EXPECT_TRUE(bit_equal(reference.final_model, secured.final_model));
}

TEST_F(SecureRecoveryTest, MultiplexedDropMidRoundMatchesUnmaskedSurvivors) {
  // Same drop scenario on the event-driven multiplexed path: the site state
  // machines answer UnmaskRequests from inside their poll loop.
  SimulatorConfig plain_config = drop_config(false);
  plain_config.num_clients = 6;
  plain_config.num_rounds = 3;
  plain_config.min_clients = 3;
  plain_config.site_workers = 2;
  SimulatorRunner plain = make_crash_runner(plain_config, 5, 1);
  const SimulationResult reference = plain.run();
  ASSERT_FALSE(reference.aborted);
  EXPECT_EQ(reference.failed_sites, (std::vector<std::string>{"site-6"}));

  SimulatorConfig masked_config = plain_config;
  masked_config.secure_agg.enabled = true;
  masked_config.secure_agg.dealer_seed = 99;
  SimulatorRunner masked = make_crash_runner(masked_config, 5, 1);
  const SimulationResult secured = masked.run();
  ASSERT_FALSE(secured.aborted) << secured.abort_reason;
  EXPECT_EQ(secured.failed_sites, (std::vector<std::string>{"site-6"}));
  EXPECT_GE(counter_or_zero(secured.metrics, metric_names::kServerRecoveryRounds), 1);
  EXPECT_TRUE(bit_equal(reference.final_model, secured.final_model));
}

TEST_F(SecureRecoveryTest, MaskedResumeOfCompletedRunIsANoOp) {
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() /
       ("cppflare_secure_resume_" + std::to_string(::getpid()) + ".bin"))
          .string();
  SimulatorConfig config = drop_config(true);
  config.num_clients = 3;
  config.num_rounds = 3;
  config.min_clients = 0;
  config.round_deadline_ms = 0;
  config.persist_path = checkpoint;
  SimulatorRunner first = make_crash_runner(config, -1, -1);
  const SimulationResult done = first.run();
  ASSERT_FALSE(done.aborted);
  ASSERT_EQ(done.history.size(), 3u);

  config.resume = true;
  SimulatorRunner again = make_crash_runner(config, -1, -1);
  const SimulationResult replay = again.run();
  EXPECT_FALSE(replay.aborted);
  EXPECT_EQ(replay.resumed_from_round, 2);
  EXPECT_EQ(replay.history.size(), 3u);
  EXPECT_TRUE(bit_equal(done.final_model, replay.final_model));
  std::filesystem::remove(checkpoint);
}

// ---------------------------------------------------------------------------
// Differential-privacy runtime
// ---------------------------------------------------------------------------

TEST_F(SecureRecoveryTest, DpRuntimeAccountsSpendAndStaysDeterministic) {
  SimulatorConfig config;
  config.job_id = "dp-sim";
  config.num_clients = 3;
  config.num_rounds = 3;
  config.dp.enabled = true;
  config.dp.clip_norm = 1.0;
  config.dp.noise_multiplier = 1.1;
  config.dp.delta = 1e-5;
  const auto run_once = [&config] {
    SimulatorRunner runner = make_crash_runner(config, -1, -1);
    return runner.run();
  };
  const SimulationResult a = run_once();
  ASSERT_FALSE(a.aborted);
  const double per_round = std::sqrt(2.0 * std::log(1.25 / 1e-5)) / 1.1;
  EXPECT_NEAR(a.dp_epsilon_spent, 3.0 * per_round, 1e-9);
  EXPECT_EQ(a.dp_delta, 1e-5);
  EXPECT_NEAR(a.metrics.gauges.at(metric_names::kDpEpsilonSpent),
              3.0 * per_round, 1e-9);
  // Seeded noise: the DP run is replayable bit for bit.
  const SimulationResult b = run_once();
  EXPECT_TRUE(bit_equal(a.final_model, b.final_model));
}

TEST_F(SecureRecoveryTest, DpComposesWithMaskingAndSurvivesADrop) {
  // Clip + noise run before the mask filter; the quantized modular pipeline
  // carries the perturbed update and recovery still converges. No bitwise
  // claim here — noise is not grid-exact — just a clean completion.
  SimulatorConfig config = drop_config(true);
  config.dp.enabled = true;
  config.dp.clip_norm = 2.0;
  config.dp.noise_multiplier = 0.5;
  SimulatorRunner runner = make_crash_runner(config, 7, 2);
  const SimulationResult result = runner.run();
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.failed_sites, (std::vector<std::string>{"site-8"}));
  ASSERT_EQ(result.history.size(), 4u);
  EXPECT_GT(result.dp_epsilon_spent, 0.0);
  EXPECT_GE(counter_or_zero(result.metrics, metric_names::kServerRecoveryRounds), 1);
}

// ---------------------------------------------------------------------------
// Wire-level recovery state machine
// ---------------------------------------------------------------------------

/// Drives the masked server one sealed frame at a time — the test controls
/// exactly who is heard from and when, so recovery transitions are pinned
/// down deterministically.
class ManualMaskedFederation {
 public:
  ManualMaskedFederation(ServerConfig config, std::int64_t num_sites,
                         std::uint64_t dealer_seed = 7)
      : job_id_(config.job_id),
        registry_(Provisioner(config.job_id, 17).provision_sites(num_sites)),
        server_(std::make_unique<FederatedServer>(
            config, registry_, dict_of({0.0f, 0.0f}),
            std::make_unique<MaskedFedAvgAggregator>(16))),
        connection_(server_->async_dispatcher()) {
    // Mask participants are the client sites only — the registry's "server"
    // entry is the channel identity, not a masking peer.
    std::vector<std::string> names;
    for (std::int64_t i = 1; i <= num_sites; ++i) {
      names.push_back("site-" + std::to_string(i));
    }
    for (const std::string& name : names) {
      maskers_[name] = make_secure_agg_mask_filter(config.job_id, dealer_seed,
                                                   name, names);
    }
  }

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
    ASSERT_TRUE(ack.accepted);
    sessions_[site] = ack.session_id;
  }

  std::vector<std::uint8_t> poll(const std::string& site) {
    return call(site, pack(GetTaskRequest{sessions_.at(site)}));
  }

  /// Masks `weights` exactly as the site's outbound chain would, then
  /// submits. The plain (pre-mask) update is what the aggregate must equal.
  SubmitAck submit_masked(const std::string& site, std::int64_t round,
                          std::vector<float> weights) {
    SubmitUpdateRequest req;
    req.session_id = sessions_.at(site);
    req.round = round;
    req.payload = Dxo(DxoKind::kWeights, dict_of(std::move(weights)));
    req.payload.set_meta_int(Dxo::kMetaNumSamples, 10);
    FLContext ctx;
    ctx.current_round = round;
    maskers_.at(site)->process(req.payload, ctx);
    return decode_submit_ack(call(site, pack(req)));
  }

  /// Polls until the server hands `site` an UnmaskRequest for `want_wave`
  /// (the deadline transitions run on the server's ticker thread, so the
  /// test spins with a generous budget instead of assuming exact timing).
  UnmaskRequest await_unmask(const std::string& site, std::int64_t want_wave) {
    for (int i = 0; i < 500; ++i) {
      const auto frame = poll(site);
      if (peek_type(frame) == MsgType::kUnmaskRequest) {
        const UnmaskRequest req = decode_unmask_request(frame);
        if (req.wave >= want_wave) return req;
      }
      core::Backoff::sleep_ms(10);
    }
    ADD_FAILURE() << site << " never received an UnmaskRequest for wave "
                  << want_wave;
    return {};
  }

  SubmitAck answer_unmask(const std::string& site, const UnmaskRequest& req) {
    const Dxo share = maskers_.at(site)->unmask_share(req.dropped, req.round);
    return decode_submit_ack(call(
        site, pack(UnmaskResponse{sessions_.at(site), req.round, req.wave, share})));
  }

 private:
  std::string job_id_;
  std::map<std::string, Credential> registry_;
  std::unique_ptr<FederatedServer> server_;
  InProcConnection connection_;
  std::map<std::string, std::shared_ptr<SecureAggMaskFilter>> maskers_;
  std::map<std::string, SequenceSource> seq_;
  std::map<std::string, std::string> sessions_;
};

ServerConfig manual_config(const std::string& job, std::int64_t sites,
                           std::int64_t min_clients) {
  ServerConfig config;
  config.job_id = job;
  config.num_rounds = 1;
  config.expected_clients = sites;
  config.min_clients = min_clients;
  config.round_deadline_ms = 150;
  config.secure_agg.enabled = true;
  config.secure_agg.recovery_deadline_ms = 5000;
  return config;
}

TEST_F(SecureRecoveryTest, WireLevelRecoveryRevealsSurvivorSumsOnly) {
  ManualMaskedFederation fed(manual_config("recover-job", 3, 2), 3);
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit_masked("site-1", 0, {1.0f, 2.0f}).accepted);
  EXPECT_TRUE(fed.submit_masked("site-2", 0, {3.0f, -1.0f}).accepted);
  // site-3 never reports; the deadline closes the round and freezes it in
  // recovery instead of publishing the mask-corrupted sum.
  const UnmaskRequest req1 = fed.await_unmask("site-1", 0);
  EXPECT_EQ(req1.round, 0);
  EXPECT_EQ(req1.wave, 0);
  EXPECT_EQ(req1.dropped, (std::vector<std::string>{"site-3"}));
  EXPECT_FALSE(fed.server().finished());

  EXPECT_TRUE(fed.answer_unmask("site-1", req1).accepted);

  // The round is frozen while shares are outstanding: a late submit (here
  // the dropped site coming back) bounces with the typed recovery reason.
  const SubmitAck bounced = fed.submit_masked("site-3", 0, {9.0f, 9.0f});
  EXPECT_FALSE(bounced.accepted);
  EXPECT_EQ(bounced.reason, RejectReason::kRecoveryInProgress);

  const UnmaskRequest req2 = fed.await_unmask("site-2", 0);
  EXPECT_TRUE(fed.answer_unmask("site-2", req2).accepted);

  ASSERT_TRUE(fed.server().wait_until_finished(10000));
  EXPECT_EQ(fed.server().abort_code(), AbortCode::kNone);
  // Survivor sum minus revealed shares decodes to the exact plain sum:
  // mean of {1,2} and {3,-1} is {2.0, 0.5}, bit for bit.
  const nn::StateDict global = fed.server().global_model();
  EXPECT_TRUE(bit_equal(global, dict_of({2.0f, 0.5f})));

  const auto metrics = fed.server().metrics_snapshot();
  EXPECT_EQ(counter_or_zero(metrics, metric_names::kServerRecoveryRounds), 1);
  EXPECT_EQ(counter_or_zero(metrics, metric_names::kServerUnmaskShares), 2);
  EXPECT_EQ(counter_or_zero(metrics, metric_names::kServerRecoveryDemotions), 0);
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_TRUE(history[0].deadline_fired);
}

TEST_F(SecureRecoveryTest, WaveDeadlineDemotesLaggardAndReasksSurvivors) {
  // 4 sites: site-4 drops before submitting, site-3 submits but never
  // answers its UnmaskRequest. The wave deadline demotes site-3 (its
  // contribution revoked, its name joining the dropped set) and the
  // remaining survivors are re-asked against the enlarged set.
  ServerConfig config = manual_config("demote-job", 4, 2);
  config.secure_agg.recovery_deadline_ms = 400;
  ManualMaskedFederation fed(config, 4);
  for (const std::string site : {"site-1", "site-2", "site-3", "site-4"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit_masked("site-1", 0, {1.0f, 2.0f}).accepted);
  EXPECT_TRUE(fed.submit_masked("site-2", 0, {3.0f, -1.0f}).accepted);
  EXPECT_TRUE(fed.submit_masked("site-3", 0, {5.0f, 5.0f}).accepted);

  const UnmaskRequest w0 = fed.await_unmask("site-1", 0);
  EXPECT_EQ(w0.wave, 0);
  EXPECT_EQ(w0.dropped, (std::vector<std::string>{"site-4"}));
  EXPECT_TRUE(fed.answer_unmask("site-1", w0).accepted);
  EXPECT_TRUE(fed.answer_unmask("site-2", fed.await_unmask("site-2", 0)).accepted);

  // site-3 stays silent past the wave deadline: demotion, wave 1.
  const UnmaskRequest w1 = fed.await_unmask("site-1", 1);
  EXPECT_EQ(w1.wave, 1);
  EXPECT_EQ(std::set<std::string>(w1.dropped.begin(), w1.dropped.end()),
            (std::set<std::string>{"site-3", "site-4"}));
  EXPECT_TRUE(fed.answer_unmask("site-1", w1).accepted);
  EXPECT_TRUE(fed.answer_unmask("site-2", fed.await_unmask("site-2", 1)).accepted);

  ASSERT_TRUE(fed.server().wait_until_finished(10000));
  // site-3's revoked contribution is masked-in nowhere: the published mean
  // is over sites 1 and 2 only.
  EXPECT_TRUE(bit_equal(fed.server().global_model(), dict_of({2.0f, 0.5f})));
  const auto metrics = fed.server().metrics_snapshot();
  EXPECT_EQ(counter_or_zero(metrics, metric_names::kServerRecoveryDemotions), 1);
  EXPECT_EQ(counter_or_zero(metrics, metric_names::kServerRecoveryRounds), 1);
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
}

TEST_F(SecureRecoveryTest, RecoveryBelowQuorumAbortsWithTypedCode) {
  // Both survivors ignore their UnmaskRequests: the demotion cascade
  // empties the surviving set below min_clients and the run dies with the
  // machine-checkable recovery abort code, never publishing.
  ServerConfig config = manual_config("abort-job", 3, 2);
  config.secure_agg.recovery_deadline_ms = 200;
  ManualMaskedFederation fed(config, 3);
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit_masked("site-1", 0, {1.0f, 2.0f}).accepted);
  EXPECT_TRUE(fed.submit_masked("site-2", 0, {3.0f, -1.0f}).accepted);

  EXPECT_FALSE(fed.server().wait_until_finished(10000));
  EXPECT_TRUE(fed.server().aborted());
  EXPECT_EQ(fed.server().abort_code(), AbortCode::kRecoveryBelowQuorum);
  EXPECT_NE(fed.server().abort_reason().find("recovery"), std::string::npos);
  // The frozen round never published: the global model is untouched.
  EXPECT_TRUE(bit_equal(fed.server().global_model(), dict_of({0.0f, 0.0f})));
  // Post-abort polls tell everyone to stop.
  const auto frame = fed.poll("site-1");
  ASSERT_EQ(peek_type(frame), MsgType::kTask);
  EXPECT_EQ(decode_task(frame).task, TaskKind::kStop);
}

TEST_F(SecureRecoveryTest, AbortCodeNamesAreStable) {
  EXPECT_STREQ(abort_code_name(AbortCode::kNone), "none");
  EXPECT_STREQ(abort_code_name(AbortCode::kRecoveryBelowQuorum),
               "recovery_below_quorum");
  EXPECT_STREQ(abort_code_name(AbortCode::kRecoveryExhausted),
               "recovery_exhausted");
}

}  // namespace
}  // namespace cppflare::flare
