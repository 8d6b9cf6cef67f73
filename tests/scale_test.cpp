// Scaling-path tests: long-poll park/push dispatch, seeded client-sampling
// determinism, hierarchical aggregation bitwise-matching flat FedAvg, and
// the one site driver across pool sizes, transports and fault plans, up to
// 256 sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include "core/logging.h"
#include "flare/hierarchy.h"
#include "flare/secure_agg.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Exact (bit-level) StateDict comparison — the hierarchical-vs-flat and
/// reproducibility guarantees are memcmp-equal, not approximately equal.
::testing::AssertionResult bitwise_equal(const nn::StateDict& a,
                                         const nn::StateDict& b) {
  if (a.entries().size() != b.entries().size()) {
    return ::testing::AssertionFailure() << "entry count differs";
  }
  for (const auto& [name, blob] : a.entries()) {
    const auto& other = b.at(name);
    if (blob.values.size() != other.values.size()) {
      return ::testing::AssertionFailure() << name << ": size differs";
    }
    if (!blob.values.empty() &&
        std::memcmp(blob.values.data(), other.values.data(),
                    blob.values.size() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << name << ": bits differ";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deterministic pseudo-random contribution for site `site_seed` (an LCG, so
/// the test needs no global RNG state).
Dxo lcg_contribution(std::uint64_t site_seed, std::int64_t samples,
                     DxoKind kind = DxoKind::kWeights) {
  std::vector<float> w(17);
  std::uint64_t s = site_seed * 0x9e3779b97f4a7c15ull + 12345;
  for (float& v : w) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<float>(static_cast<std::int64_t>(s >> 40) % 2000 - 1000) /
        250.0f;
  }
  Dxo d(kind, dict_of(std::move(w)));
  d.set_meta_int(Dxo::kMetaNumSamples, samples);
  d.set_meta_int(Dxo::kMetaRound, 0);
  d.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
  d.set_meta_double(Dxo::kMetaValidAcc, 0.5);
  return d;
}

std::string padded_site(std::size_t i) {
  return "s-" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

// ---- wire compatibility --------------------------------------------------

TEST_F(ScaleTest, GetTaskWaitMsRoundtripsAndTruncatedFramesThrow) {
  const GetTaskRequest req{"sess-42-site-1", 12345};
  const std::vector<std::uint8_t> frame = pack(req);
  const GetTaskRequest back = decode_get_task(frame);
  EXPECT_EQ(back.session_id, req.session_id);
  EXPECT_EQ(back.wait_ms, 12345);

  // The same bytes minus the trailing i64 (the pre-long-poll shape) are a
  // truncated frame, not a wait_ms = 0 request.
  std::vector<std::uint8_t> truncated = frame;
  ASSERT_GE(truncated.size(), 8u);
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW((void)decode_get_task(truncated), Error);
}

// ---- hierarchical aggregation -------------------------------------------

TEST_F(ScaleTest, HierarchicalMatchesFlatBitwiseAcrossShapes) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 11u, 16u, 33u}) {
    for (const std::int64_t fanout : {2, 4, 16}) {
      for (const bool weighted : {true, false}) {
        FedAvgAggregator flat(weighted);
        HierarchicalFedAvgAggregator hier(weighted, fanout);
        const nn::StateDict global = dict_of(std::vector<float>(17, 0.0f));
        flat.reset(global, 0);
        hier.reset(global, 0);
        // Scrambled (and different) arrival orders: aggregation is defined
        // over site-name order, not arrival order.
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t j = (i * 7 + 3) % n;
          ASSERT_TRUE(flat.accept(padded_site(j),
                                  lcg_contribution(j + 1, 10 + 7 * (j % 5))));
        }
        for (std::size_t i = n; i-- > 0;) {
          ASSERT_TRUE(hier.accept(padded_site(i),
                                  lcg_contribution(i + 1, 10 + 7 * (i % 5))));
        }
        const nn::StateDict a = flat.aggregate();
        const nn::StateDict b = hier.aggregate();
        EXPECT_TRUE(bitwise_equal(a, b))
            << "n=" << n << " fanout=" << fanout << " weighted=" << weighted;
      }
    }
  }
}

TEST_F(ScaleTest, HierarchicalMatchesFlatWithDiffsAndRevocation) {
  const nn::StateDict global = dict_of(std::vector<float>(17, 0.25f));
  FedAvgAggregator flat(true);
  HierarchicalFedAvgAggregator hier(true, 4);
  flat.reset(global, 2);
  hier.reset(global, 2);
  for (std::size_t i = 0; i < 9; ++i) {
    Dxo d = lcg_contribution(i + 1, 20 + static_cast<std::int64_t>(i),
                             DxoKind::kWeightDiff);
    ASSERT_TRUE(flat.accept(padded_site(i), d));
    ASSERT_TRUE(hier.accept(padded_site(i), d));
  }
  // Buffered aggregation supports revocation; both modes must agree on the
  // post-revocation bits too.
  EXPECT_TRUE(flat.revoke(padded_site(3)));
  EXPECT_TRUE(hier.revoke(padded_site(3)));
  EXPECT_TRUE(bitwise_equal(flat.aggregate(), hier.aggregate()));
}

TEST_F(ScaleTest, HierarchicalFanoutMustBePowerOfTwoAtLeastTwo) {
  EXPECT_THROW(HierarchicalFedAvgAggregator(true, 0), ConfigError);
  EXPECT_THROW(HierarchicalFedAvgAggregator(true, 1), ConfigError);
  EXPECT_THROW(HierarchicalFedAvgAggregator(true, 3), ConfigError);
  EXPECT_THROW(HierarchicalFedAvgAggregator(true, 12), ConfigError);
  EXPECT_NO_THROW(HierarchicalFedAvgAggregator(true, 2));
  EXPECT_NO_THROW(HierarchicalFedAvgAggregator(false, 64));
}

// ---- long-poll park and push --------------------------------------------

/// Minimal raw protocol driver over the async dispatcher: seal a frame,
/// dispatch it, get the opened payload back through a future. This is what
/// lets the test observe *when* the server answers, which a blocking client
/// cannot.
class RawSite {
 public:
  RawSite(Credential cred, std::string job_id, AsyncDispatcher dispatch)
      : cred_(std::move(cred)),
        job_id_(std::move(job_id)),
        dispatch_(std::move(dispatch)) {}

  std::future<std::vector<std::uint8_t>> send(
      const std::vector<std::uint8_t>& frame) {
    auto prom = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
    std::future<std::vector<std::uint8_t>> fut = prom->get_future();
    const std::vector<std::uint8_t> sealed_frame =
        seal(cred_.name, cred_.secret, seq_.next(), frame, job_id_);
    const std::vector<std::uint8_t> secret = cred_.secret;
    dispatch_(sealed_frame, [prom, secret](std::vector<std::uint8_t> resp) {
      try {
        const Envelope env = open(resp, secret);
        prom->set_value({env.payload.begin(), env.payload.end()});
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    });
    return fut;
  }

  void register_site() {
    const RegisterAck ack =
        decode_register_ack(send(pack(RegisterRequest{cred_.name, cred_.token})).get());
    ASSERT_TRUE(ack.accepted) << ack.message;
    session_ = ack.session_id;
  }

  std::future<std::vector<std::uint8_t>> get_task(std::int64_t wait_ms) {
    return send(pack(GetTaskRequest{session_, wait_ms}));
  }

  void submit(std::int64_t round) {
    Dxo d = lcg_contribution(1, 10);
    d.set_meta_int(Dxo::kMetaRound, round);
    const SubmitAck ack = decode_submit_ack(
        send(pack(SubmitUpdateRequest{session_, round, d})).get());
    ASSERT_TRUE(ack.accepted) << ack.message;
  }

 private:
  Credential cred_;
  std::string job_id_;
  AsyncDispatcher dispatch_;
  SequenceSource seq_;
  std::string session_;
};

TEST_F(ScaleTest, LongPollParksUntilRoundOpensThenPushes) {
  const auto registry = Provisioner("scale-park", 5).provision_sites(2);
  ServerConfig config;
  config.job_id = "scale-park";
  config.num_rounds = 1;
  config.min_clients = 2;
  config.expected_clients = 2;
  FederatedServer server(config, registry, dict_of(std::vector<float>(17, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true));

  RawSite s1(registry.at("site-1"), config.job_id, server.async_dispatcher());
  RawSite s2(registry.at("site-2"), config.job_id, server.async_dispatcher());
  s1.register_site();

  // The run has not started (site-2 is missing): a long-poll must park, not
  // answer kNone.
  std::future<std::vector<std::uint8_t>> parked = s1.get_task(10000);
  ASSERT_EQ(parked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);

  // site-2's registration opens round 0; the parked poll must complete with
  // the train task *without* site-1 ever re-polling.
  s2.register_site();
  ASSERT_EQ(parked.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const TaskMessage pushed = decode_task(parked.get());
  EXPECT_EQ(pushed.task, TaskKind::kTrain);
  EXPECT_EQ(pushed.round, 0);
}

TEST_F(ScaleTest, ParkedPollExpiresWithNoneAtDeadline) {
  const auto registry = Provisioner("scale-expire", 6).provision_sites(2);
  ServerConfig config;
  config.job_id = "scale-expire";
  config.num_rounds = 2;
  config.min_clients = 2;
  config.expected_clients = 2;
  FederatedServer server(config, registry, dict_of(std::vector<float>(17, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true));

  RawSite s1(registry.at("site-1"), config.job_id, server.async_dispatcher());
  RawSite s2(registry.at("site-2"), config.job_id, server.async_dispatcher());
  s1.register_site();
  s2.register_site();
  // site-1 resolves round 0; its next poll has nothing to do (the round is
  // waiting on site-2) and parks, then expires with kNone at its deadline.
  s1.submit(0);
  const auto t0 = std::chrono::steady_clock::now();
  const TaskMessage expired = decode_task(s1.get_task(80).get());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(expired.task, TaskKind::kNone);
  EXPECT_GE(waited, 50);  // genuinely parked, not answered immediately
}

// ---- the round's shared task body ----------------------------------------

/// The kTrain body every site polling `round` must receive, packed from
/// scratch the way a per-site encode would.
std::vector<std::uint8_t> expected_train_body(const nn::StateDict& global,
                                              std::int64_t round,
                                              std::int64_t rounds) {
  TaskMessage task{TaskKind::kTrain, round, rounds, Dxo(DxoKind::kWeights, global)};
  task.payload.set_meta_int(Dxo::kMetaRound, round);
  return pack(task);
}

std::vector<std::unique_ptr<RawSite>> raw_sites(
    const std::map<std::string, Credential>& registry, const std::string& job_id,
    FederatedServer& server) {
  std::vector<std::unique_ptr<RawSite>> sites;
  for (const auto& [name, cred] : registry) {
    // The registry also holds the server's own identity, which is not a site.
    if (name.rfind("site-", 0) != 0) continue;
    sites.push_back(
        std::make_unique<RawSite>(cred, job_id, server.async_dispatcher()));
  }
  return sites;
}

// The server encodes a round's kTrain body once and shares it between every
// site. Parked polls the round's opening releases and polls answered inline
// must all carry exactly the bytes of a fresh pack of the round's task, the
// body must change once the round closes, and parked polls must get kStop
// when the run finishes.
TEST_F(ScaleTest, TrainTaskBodyIsSharedAndExactEveryRound) {
  for (const bool masked : {false, true}) {
    SCOPED_TRACE(masked ? "masked" : "unmasked");
    constexpr std::int64_t kRounds = 2;
    const auto registry = Provisioner("scale-task", 7).provision_sites(8);
    ServerConfig config;
    config.job_id = "scale-task";
    config.num_rounds = kRounds;
    config.min_clients = 8;
    config.expected_clients = 8;
    config.secure_agg.enabled = masked;
    std::unique_ptr<Aggregator> aggregator;
    if (masked) {
      aggregator = std::make_unique<MaskedFedAvgAggregator>();
    } else {
      aggregator = std::make_unique<FedAvgAggregator>(true);
    }
    const nn::StateDict initial = lcg_contribution(99, 1).data();
    FederatedServer server(config, registry, initial, std::move(aggregator));
    // The global model each round trains on. Observers run on the submitting
    // site's dispatch, which completes before its submit future is ready.
    std::vector<nn::StateDict> globals{initial};
    server.add_round_observer(
        [&globals](std::int64_t, const nn::StateDict& global, const RoundMetrics&) {
          globals.push_back(global);
        });

    auto sites = raw_sites(registry, config.job_id, server);
    // Seven sites register and park their polls; the eighth opens round 0
    // and its own poll is answered inline.
    std::vector<std::future<std::vector<std::uint8_t>>> polls;
    for (std::size_t i = 0; i + 1 < sites.size(); ++i) {
      sites[i]->register_site();
      polls.push_back(sites[i]->get_task(10000));
    }
    sites.back()->register_site();
    polls.push_back(sites.back()->get_task(10000));

    std::vector<std::uint8_t> previous;
    for (std::int64_t round = 0; round < kRounds; ++round) {
      ASSERT_EQ(globals.size(), static_cast<std::size_t>(round + 1));
      const std::vector<std::uint8_t> expected =
          expected_train_body(globals.back(), round, kRounds);
      EXPECT_NE(expected, previous) << "round " << round;
      for (auto& poll : polls) {
        ASSERT_EQ(poll.wait_for(std::chrono::seconds(5)), std::future_status::ready);
        EXPECT_EQ(poll.get(), expected) << "round " << round;
      }
      previous = expected;
      // Every site submits and polls again: it parks (resolved) until the
      // last submit closes the round and releases the next round's task.
      polls.clear();
      for (auto& site : sites) {
        site->submit(round);
        polls.push_back(site->get_task(10000));
      }
    }
    for (auto& poll : polls) {
      ASSERT_EQ(poll.wait_for(std::chrono::seconds(5)), std::future_status::ready);
      EXPECT_EQ(decode_task(poll.get()).task, TaskKind::kStop);
    }
    EXPECT_TRUE(server.wait_until_finished(1000));
  }
}

// Sampled-out sites get kNone (inline, and by parking); when the run is
// aborted, every parked poll completes with kStop.
TEST_F(ScaleTest, SampledOutSitesGetNoneAndParkedPollsStopOnAbort) {
  const auto registry = Provisioner("scale-sample-abort", 8).provision_sites(8);
  ServerConfig config;
  config.job_id = "scale-sample-abort";
  config.num_rounds = 3;
  config.min_clients = 5;
  config.expected_clients = 8;
  config.clients_per_round = 5;
  const nn::StateDict initial = lcg_contribution(42, 1).data();
  FederatedServer server(config, registry, initial,
                         std::make_unique<FedAvgAggregator>(true));
  auto sites = raw_sites(registry, config.job_id, server);
  for (auto& site : sites) site->register_site();

  const std::vector<std::uint8_t> train = expected_train_body(initial, 0, 3);
  std::vector<RawSite*> sampled_out;
  for (auto& site : sites) {
    const std::vector<std::uint8_t> body = site->get_task(0).get();
    const TaskMessage task = decode_task(body);
    if (task.task == TaskKind::kTrain) {
      EXPECT_EQ(body, train);
    } else {
      EXPECT_EQ(task.task, TaskKind::kNone);
      EXPECT_EQ(task.round, 0);
      sampled_out.push_back(site.get());
    }
  }
  ASSERT_EQ(sampled_out.size(), 3u);

  std::vector<std::future<std::vector<std::uint8_t>>> parked;
  for (RawSite* site : sampled_out) parked.push_back(site->get_task(10000));
  for (auto& poll : parked) {
    EXPECT_EQ(poll.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
  }
  EXPECT_TRUE(server.abort("operator abort"));
  for (auto& poll : parked) {
    ASSERT_EQ(poll.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_EQ(decode_task(poll.get()).task, TaskKind::kStop);
  }
}

// ---- seeded sampling determinism ----------------------------------------

/// Records which (round, site) pairs actually trained — the observable
/// cohort of each round — while producing a deterministic update.
class CohortLearner : public Learner {
 public:
  struct Recorder {
    core::Mutex mu;
    std::map<std::int64_t, std::set<std::string>> cohorts CF_GUARDED_BY(mu);

    std::map<std::int64_t, std::set<std::string>> snapshot() {
      core::MutexLock lock(mu);
      return cohorts;
    }
  };

  CohortLearner(std::string site, float target,
                std::shared_ptr<Recorder> recorder)
      : site_(std::move(site)), target_(target), recorder_(std::move(recorder)) {}

  Dxo train(const Dxo& global, const FLContext& ctx) override {
    {
      core::MutexLock lock(recorder_->mu);
      recorder_->cohorts[ctx.current_round].insert(site_);
    }
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
  std::shared_ptr<Recorder> recorder_;
};

struct SampledRun {
  std::map<std::int64_t, std::set<std::string>> cohorts;
  nn::StateDict final_model;
};

SampledRun run_sampled(std::uint64_t seed, std::int64_t site_workers) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 5;
  config.clients_per_round = 3;
  config.seed = seed;
  config.site_workers = site_workers;
  auto recorder = std::make_shared<CohortLearner::Recorder>();
  SimulatorRunner runner(config, dict_of(std::vector<float>(9, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<CohortLearner>(
                               name, static_cast<float>(i), recorder);
                         });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  return {recorder->snapshot(), result.final_model};
}

TEST_F(ScaleTest, SamplingSameSeedSameCohortsAndBits) {
  const SampledRun a = run_sampled(21, 0);
  const SampledRun b = run_sampled(21, 0);
  ASSERT_EQ(a.cohorts.size(), 5u);
  for (const auto& [round, cohort] : a.cohorts) {
    EXPECT_EQ(cohort.size(), 3u) << "round " << round;
  }
  EXPECT_EQ(a.cohorts, b.cohorts);
  EXPECT_TRUE(bitwise_equal(a.final_model, b.final_model));

  // A different seed draws different cohorts (deterministically so).
  const SampledRun c = run_sampled(22, 0);
  EXPECT_NE(a.cohorts, c.cohorts);
}

TEST_F(ScaleTest, SamplingCohortsIdenticalAcrossExecutionModes) {
  // The cohort is a server-side draw: a worker per site and two workers for
  // all sites see the same K-of-N sample every round for the same seed and
  // aggregate to the same bits.
  const SampledRun threads = run_sampled(33, 0);
  const SampledRun multiplexed = run_sampled(33, 2);
  EXPECT_EQ(threads.cohorts, multiplexed.cohorts);
  EXPECT_TRUE(bitwise_equal(threads.final_model, multiplexed.final_model));
}

// ---- the one site driver -----------------------------------------------

/// Every site clips its update through a customizer filter, and site-2 is
/// poisoned with seeded noise, so the parity checks cover per-site setup as
/// well as the protocol.
nn::StateDict run_federation(std::int64_t num_clients, std::int64_t site_workers,
                             std::unique_ptr<Aggregator> aggregator,
                             std::int64_t clients_per_round = 0,
                             bool use_tcp = false,
                             SimulatorRunner::FaultPlanner faults = nullptr) {
  SimulatorConfig config;
  config.num_clients = num_clients;
  config.num_rounds = 3;
  config.clients_per_round = clients_per_round;
  config.site_workers = site_workers;
  config.use_tcp = use_tcp;
  // Loopback-scaled retries with headroom for the fault-plan case.
  config.client_retry = {1, 20, 2.0, 8, 0.0, true};
  SimulatorRunner runner(config, dict_of(std::vector<float>(9, 0.0f)),
                         std::move(aggregator),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<CohortLearner>(
                               name, static_cast<float>(i % 5),
                               std::make_shared<CohortLearner::Recorder>());
                         });
  runner.set_client_customizer([](SiteSession& session) {
    session.outbound_filters().add(std::make_shared<NormClipFilter>(5.0));
  });
  runner.set_poison_planner(
      [](std::int64_t i, const std::string&) -> std::optional<PoisonPlan> {
        if (i != 1) return std::nullopt;
        PoisonPlan plan;
        plan.noise_sigma = 0.5;
        return plan;
      });
  if (faults) runner.set_fault_planner(std::move(faults));
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_TRUE(result.failed_sites.empty());
  return result.final_model;
}

TEST_F(ScaleTest, FinalsMatchAcrossPoolSizesAndTransports) {
  // One driver runs every site: a worker per site (site_workers 0) and three
  // workers for all eight, in-process and over loopback TCP (where the pool
  // has a worker per site whatever site_workers says), reach the same bits.
  const nn::StateDict reference =
      run_federation(8, 0, std::make_unique<FedAvgAggregator>(true));
  for (const std::int64_t workers : {0, 3}) {
    for (const bool tcp : {false, true}) {
      EXPECT_TRUE(bitwise_equal(
          reference, run_federation(8, workers,
                                    std::make_unique<FedAvgAggregator>(true), 0, tcp)))
          << "site_workers " << workers << (tcp ? " over TCP" : " in-process");
    }
  }
}

TEST_F(ScaleTest, SmallPoolRunsTcpAndFaultPlansBitwiseEqualToClean) {
  // Four sites on two workers: loopback TCP, and separately an in-process
  // fault plan (drops on every connection plus one disconnect on site-3),
  // each reach the clean in-process run's exact bits.
  const nn::StateDict clean =
      run_federation(4, 2, std::make_unique<FedAvgAggregator>(true));
  EXPECT_TRUE(bitwise_equal(
      clean, run_federation(4, 2, std::make_unique<FedAvgAggregator>(true), 0,
                            /*use_tcp=*/true)));
  // Every injected fault costs the site its connection, so the planner's
  // reconnect count shows that the plan fired.
  std::atomic<std::int64_t> reconnects{0};
  const nn::StateDict faulty = run_federation(
      4, 2, std::make_unique<FedAvgAggregator>(true), 0, /*use_tcp=*/false,
      [&reconnects](std::int64_t i, const std::string&,
                    std::int64_t incarnation) -> std::optional<FaultPlan> {
        if (incarnation > 0) reconnects.fetch_add(1);
        FaultPlan plan;
        plan.seed = 0xfa17 + static_cast<std::uint64_t>(i * 1000 + incarnation);
        plan.drop_prob = 0.2;
        if (i == 2 && incarnation == 0) plan.disconnect_on_call = 3;
        return plan;
      });
  EXPECT_GE(reconnects.load(), 2);
  EXPECT_TRUE(bitwise_equal(clean, faulty));
}

TEST_F(ScaleTest, HierarchicalFederationMatchesFlatBitwise) {
  const nn::StateDict flat =
      run_federation(11, 4, std::make_unique<FedAvgAggregator>(true));
  const nn::StateDict hier = run_federation(
      11, 4, std::make_unique<HierarchicalFedAvgAggregator>(true, 4));
  EXPECT_TRUE(bitwise_equal(flat, hier));
}

TEST_F(ScaleTest, TwoFiftySixSitesOnEightWorkersReproducible) {
  // The acceptance case: a 256-site sampled federation multiplexed over 8
  // workers on one box, bitwise-reproducible across invocations.
  const nn::StateDict first = run_federation(
      256, 8, std::make_unique<HierarchicalFedAvgAggregator>(true, 16), 64);
  const nn::StateDict second = run_federation(
      256, 8, std::make_unique<HierarchicalFedAvgAggregator>(true, 16), 64);
  EXPECT_TRUE(bitwise_equal(first, second));
}

}  // namespace
}  // namespace cppflare::flare
