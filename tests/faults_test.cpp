// Fault-tolerance suite (DESIGN.md §9).
//
// Exercises the whole failure model end to end: the fault-injection
// transport decorator, client retry/backoff and re-registration, server
// round deadlines / liveness eviction / abort, and crash-restart resume
// from a checkpoint. The headline property is determinism: because every
// fault source is seeded and FedAvg reduces in site order, a federation
// hammered with drops, delays, duplicates and disconnects converges
// bit-for-bit identical to a fault-free run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <unistd.h>

#include "core/backoff.h"
#include "core/error.h"
#include "core/logging.h"
#include "flare/client.h"
#include "flare/faults.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    dir_ = std::filesystem::temp_directory_path() /
           ("cppflare_faults_" + std::to_string(::getpid()));
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

nn::StateDict tiny_model() { return dict_of({0.0f, 0.0f, 0.0f, 0.0f}); }

/// Bitwise model equality — the acceptance bar for fault-tolerant runs.
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

/// Deterministic learner: nudges every weight halfway toward a per-site
/// target. The result of a round is a pure function of the incoming model,
/// so any two runs that execute the same rounds agree bit-for-bit.
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

// ---------------------------------------------------------------------------
// FaultyConnection unit behavior
// ---------------------------------------------------------------------------

class CountingEcho : public Connection {
 public:
  void send(const std::vector<std::uint8_t>& req, Done done) override {
    calls += 1;
    done(req, nullptr);
  }
  int calls = 0;
};

TEST_F(FaultsTest, DropAlternatesRequestAndResponse) {
  auto inner = std::make_unique<CountingEcho>();
  auto* raw = inner.get();
  FaultPlan plan;
  plan.drop_prob = 1.0;
  plan.max_faults = 2;
  FaultyConnection conn(std::move(inner), plan);
  // First drop loses the request: the server never sees it.
  EXPECT_THROW(conn.call({1}), TransportError);
  EXPECT_EQ(raw->calls, 0);
  // Second drop loses the response: the server DID process the frame.
  EXPECT_THROW(conn.call({2}), TransportError);
  EXPECT_EQ(raw->calls, 1);
  // Fault budget spent: clean delivery from here on.
  EXPECT_EQ(conn.call({3}), (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(raw->calls, 2);
  EXPECT_EQ(conn.stats().dropped_requests, 1);
  EXPECT_EQ(conn.stats().dropped_responses, 1);
}

TEST_F(FaultsTest, DisconnectOnCallKillsConnectionPermanently) {
  auto inner = std::make_unique<CountingEcho>();
  FaultPlan plan;
  plan.disconnect_on_call = 1;
  FaultyConnection conn(std::move(inner), plan);
  EXPECT_EQ(conn.call({1}), (std::vector<std::uint8_t>{1}));
  EXPECT_FALSE(conn.disconnected());
  EXPECT_THROW(conn.call({2}), TransportError);
  EXPECT_TRUE(conn.disconnected());
  // Every later call fails until the owner reconnects via its factory.
  EXPECT_THROW(conn.call({3}), TransportError);
  EXPECT_EQ(conn.stats().disconnects, 1);
}

TEST_F(FaultsTest, CorruptFlipsExactlyOneBit) {
  auto inner = std::make_unique<CountingEcho>();
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  plan.max_faults = 1;
  FaultyConnection conn(std::move(inner), plan);
  const std::vector<std::uint8_t> msg = {0x11, 0x22, 0x33, 0x44};
  const std::vector<std::uint8_t> echoed = conn.call(msg);
  ASSERT_EQ(echoed.size(), msg.size());
  int flipped = 0;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    std::uint8_t diff = msg[i] ^ echoed[i];
    while (diff != 0) {
      flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(conn.stats().corruptions, 1);
  EXPECT_EQ(conn.call(msg), msg);  // budget spent, clean again
}

TEST_F(FaultsTest, DuplicateDeliversFrameTwice) {
  auto inner = std::make_unique<CountingEcho>();
  auto* raw = inner.get();
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  plan.max_faults = 1;
  FaultyConnection conn(std::move(inner), plan);
  EXPECT_EQ(conn.call({7}), (std::vector<std::uint8_t>{7}));
  EXPECT_EQ(raw->calls, 2);  // delivered twice, duplicate response discarded
  EXPECT_EQ(conn.stats().duplicates, 1);
}

TEST_F(FaultsTest, FaultScheduleIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.3;
  plan.delay_prob = 0.2;
  plan.delay_ms = 0;
  plan.corrupt_prob = 0.1;
  auto run_schedule = [&plan] {
    FaultyConnection conn(std::make_unique<CountingEcho>(), plan);
    for (int i = 0; i < 60; ++i) {
      try {
        conn.call({static_cast<std::uint8_t>(i)});
      } catch (const TransportError&) {
      }
    }
    return conn.stats();
  };
  const FaultStats a = run_schedule();
  const FaultStats b = run_schedule();
  EXPECT_GT(a.total_faults(), 0);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.dropped_responses, b.dropped_responses);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.corruptions, b.corruptions);
}

// ---------------------------------------------------------------------------
// core::Backoff
// ---------------------------------------------------------------------------

TEST_F(FaultsTest, BackoffGrowsMultiplicativelyAndCaps) {
  core::Backoff backoff({10, 40, 2.0, -1, 0.0});
  EXPECT_EQ(backoff.next_delay_ms(), 10);
  EXPECT_EQ(backoff.next_delay_ms(), 20);
  EXPECT_EQ(backoff.next_delay_ms(), 40);
  EXPECT_EQ(backoff.next_delay_ms(), 40);  // capped
  backoff.reset();
  EXPECT_EQ(backoff.next_delay_ms(), 10);
}

TEST_F(FaultsTest, BackoffExhaustsAfterMaxRetries) {
  core::Backoff backoff({1, 1, 2.0, 2, 0.0});
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_TRUE(backoff.try_again());
  EXPECT_TRUE(backoff.try_again());
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_FALSE(backoff.try_again());
  EXPECT_EQ(backoff.retries(), 2);
}

TEST_F(FaultsTest, BackoffFastFirstRetryIsImmediateThenExponential) {
  core::Backoff backoff({10, 40, 2.0, -1, 0.0, /*fast_first_retry=*/true});
  EXPECT_EQ(backoff.next_delay_ms(), 0);  // first retry of the episode is free
  EXPECT_EQ(backoff.next_delay_ms(), 10);
  EXPECT_EQ(backoff.next_delay_ms(), 20);
  backoff.reset();  // success rearms the free retry
  EXPECT_EQ(backoff.next_delay_ms(), 0);
  EXPECT_EQ(backoff.next_delay_ms(), 10);
}

TEST_F(FaultsTest, BackoffJitterIsBoundedAndSeeded) {
  core::Backoff a({100, 1000, 2.0, -1, 0.5}, 42);
  core::Backoff b({100, 1000, 2.0, -1, 0.5}, 42);
  for (int i = 0; i < 8; ++i) {
    const std::int64_t da = a.next_delay_ms();
    EXPECT_GE(da, 50);
    EXPECT_LE(da, 1500);
    EXPECT_EQ(da, b.next_delay_ms());  // same seed, same schedule
  }
}

// ---------------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------------

class DeadConnection : public Connection {
 public:
  void send(const std::vector<std::uint8_t>&, Done done) override {
    done({}, std::make_exception_ptr(TransportError("dead connection")));
  }
};

TEST_F(FaultsTest, ClientGivesUpAfterRetryBudgetAgainstDeadServer) {
  const auto registry = Provisioner("dead-job", 3).provision_sites(1);
  ClientConfig config;
  config.job_id = "dead-job";
  config.retry = {1, 2, 2.0, 3, 0.0};  // 1 attempt + 3 retries
  std::int64_t connections_built = 0;
  FederatedClient client(
      config, registry.at("site-1"),
      [&connections_built]() -> std::unique_ptr<Connection> {
        connections_built += 1;
        return std::make_unique<DeadConnection>();
      },
      std::make_shared<NudgeLearner>("site-1", 1.0f));
  EXPECT_THROW(client.run(), TransportError);
  EXPECT_EQ(client.transport_failures(), 4);  // every attempt failed
  EXPECT_EQ(client.reconnects(), 3);          // rebuilt before each retry
  EXPECT_EQ(connections_built, 4);
}

// ---------------------------------------------------------------------------
// Server degradation: deadlines, eviction, abort
// ---------------------------------------------------------------------------

/// Manual-dispatcher harness: drives the server protocol one sealed frame
/// at a time so tests control exactly who is heard from and when.
class ManualFederation {
 public:
  ManualFederation(ServerConfig config, std::int64_t num_sites)
      : job_id_(config.job_id),
        registry_(Provisioner(config.job_id, 17).provision_sites(num_sites)),
        server_(std::make_unique<FederatedServer>(
            config, registry_, dict_of({0.0f, 0.0f}),
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

  std::string register_site(const std::string& site) {
    const RegisterAck ack = decode_register_ack(
        call(site, pack(RegisterRequest{site, registry_.at(site).token})));
    EXPECT_TRUE(ack.accepted);
    sessions_[site] = ack.session_id;
    return ack.session_id;
  }

  TaskMessage get_task(const std::string& site) {
    return decode_task(call(site, pack(GetTaskRequest{sessions_.at(site)})));
  }

  SubmitAck submit(const std::string& site, std::int64_t round,
                   std::vector<float> weights) {
    SubmitUpdateRequest req;
    req.session_id = sessions_.at(site);
    req.round = round;
    req.payload = Dxo(DxoKind::kWeights, dict_of(std::move(weights)));
    req.payload.set_meta_int(Dxo::kMetaNumSamples, 10);
    return decode_submit_ack(call(site, pack(req)));
  }

 private:
  std::string job_id_;
  std::map<std::string, Credential> registry_;
  std::unique_ptr<FederatedServer> server_;
  InProcConnection connection_;
  std::map<std::string, SequenceSource> seq_;
  std::map<std::string, std::string> sessions_;
};

TEST_F(FaultsTest, WaitUntilFinishedWakesOnAbort) {
  ServerConfig config;
  config.job_id = "abort-job";
  config.expected_clients = 1;
  config.min_clients = 1;
  ManualFederation fed(config, 1);
  std::thread aborter([&fed] {
    core::Backoff::sleep_ms(50);
    fed.server().abort("test abort");
  });
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = fed.server().wait_until_finished(10000);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  aborter.join();
  EXPECT_FALSE(ok);
  EXPECT_LT(waited_ms, 5000);  // woke on the abort, not the timeout
  EXPECT_TRUE(fed.server().aborted());
  EXPECT_EQ(fed.server().abort_reason(), "test abort");
}

TEST_F(FaultsTest, DeadlineClosesRoundAtMinClients) {
  ServerConfig config;
  config.job_id = "deadline-job";
  config.num_rounds = 1;
  config.expected_clients = 3;
  config.min_clients = 2;
  config.round_deadline_ms = 60;
  ManualFederation fed(config, 3);
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit("site-1", 0, {1.0f, 1.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-2", 0, {3.0f, 3.0f}).accepted);
  // Two of three reported; the round stays open until the deadline.
  EXPECT_FALSE(fed.server().finished());
  core::Backoff::sleep_ms(80);
  // Any traffic past the deadline closes the round with min_clients.
  const TaskMessage task = fed.get_task("site-1");
  EXPECT_EQ(task.task, TaskKind::kStop);
  EXPECT_TRUE(fed.server().finished());
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_TRUE(history[0].deadline_fired);
  EXPECT_EQ(fed.server().global_model().at("w").values[0], 2.0f);
}

TEST_F(FaultsTest, DeadlineBelowMinClientsAbortsRun) {
  ServerConfig config;
  config.job_id = "abort-deadline-job";
  config.num_rounds = 2;
  config.expected_clients = 2;
  config.min_clients = 2;
  config.round_deadline_ms = 50;
  ManualFederation fed(config, 2);
  fed.register_site("site-1");
  fed.register_site("site-2");
  EXPECT_TRUE(fed.submit("site-1", 0, {1.0f, 1.0f}).accepted);
  core::Backoff::sleep_ms(70);
  // One contribution < min_clients when the deadline fires: the run dies.
  const TaskMessage task = fed.get_task("site-2");
  EXPECT_EQ(task.task, TaskKind::kStop);
  EXPECT_TRUE(fed.server().aborted());
  EXPECT_NE(fed.server().abort_reason().find("deadline"), std::string::npos);
  EXPECT_FALSE(fed.server().wait_until_finished(10));
  // Late work against an aborted run is refused.
  EXPECT_FALSE(fed.submit("site-2", 0, {9.0f, 9.0f}).accepted);
}

TEST_F(FaultsTest, DeadSiteEvictedThenReadmittedOnReturn) {
  ServerConfig config;
  config.job_id = "evict-job";
  config.num_rounds = 2;
  config.expected_clients = 3;
  config.min_clients = 1;
  config.liveness_timeout_ms = 60;
  ManualFederation fed(config, 3);
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit("site-1", 0, {1.0f, 1.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-2", 0, {3.0f, 3.0f}).accepted);
  EXPECT_FALSE(fed.server().finished());  // waiting on site-3
  core::Backoff::sleep_ms(80);
  // site-3 has been silent past the liveness timeout: the next traffic
  // evicts it, which shrinks the quorum to the two live sites and closes
  // round 0 immediately.
  const TaskMessage t1 = fed.get_task("site-1");
  auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_EQ(history[0].evicted_sites, 1);
  EXPECT_FALSE(history[0].deadline_fired);
  EXPECT_EQ(fed.server().evicted_sites(),
            (std::vector<std::string>{"site-3"}));
  EXPECT_EQ(t1.task, TaskKind::kTrain);
  EXPECT_EQ(t1.round, 1);

  // site-3 comes back with its round-0 contribution: counted as late
  // telemetry on the closed round, and the site re-admitted to the quorum.
  const SubmitAck late = fed.submit("site-3", 0, {5.0f, 5.0f});
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.message, "stale round");
  EXPECT_TRUE(fed.server().evicted_sites().empty());
  EXPECT_EQ(fed.server().history()[0].late_contributions, 1);

  // Round 1 now requires all three again.
  EXPECT_TRUE(fed.submit("site-1", 1, {1.0f, 1.0f}).accepted);
  EXPECT_TRUE(fed.submit("site-2", 1, {3.0f, 3.0f}).accepted);
  EXPECT_FALSE(fed.server().finished());
  EXPECT_TRUE(fed.submit("site-3", 1, {5.0f, 5.0f}).accepted);
  EXPECT_TRUE(fed.server().finished());
  history = fed.server().history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].num_contributions, 3);
  EXPECT_EQ(history[1].evicted_sites, 0);
}

TEST_F(FaultsTest, ResumeRejectsCheckpointFromOtherJob) {
  Checkpoint foreign;
  foreign.job_id = "some-other-job";
  foreign.round = 1;
  foreign.model = dict_of({0.0f, 0.0f});
  ServerConfig config;
  config.job_id = "this-job";
  const auto registry = Provisioner("this-job", 5).provision_sites(1);
  EXPECT_THROW(FederatedServer(config, registry, dict_of({0.0f, 0.0f}),
                               std::make_unique<FedAvgAggregator>(true), nullptr,
                               foreign),
               ConfigError);
}

// ---------------------------------------------------------------------------
// End-to-end convergence under injected faults
// ---------------------------------------------------------------------------

/// The acceptance bar: an 8-site TCP federation with 10% frame drops on
/// every link plus one hard mid-run disconnect produces bit-for-bit the
/// same global model as the fault-free run.
TEST_F(FaultsTest, EightSiteTcpWithDropsAndDisconnectMatchesCleanRun) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 5;
  config.use_tcp = true;

  SimulatorRunner clean = make_runner(config);
  const SimulationResult clean_result = clean.run();

  SimulatorRunner faulty = make_runner(config);
  faulty.set_fault_planner(
      [](std::int64_t index, const std::string&,
         std::int64_t incarnation) -> std::optional<FaultPlan> {
        FaultPlan plan;
        plan.seed = 0xfa017 + static_cast<std::uint64_t>(index) * 1000 +
                    static_cast<std::uint64_t>(incarnation);
        plan.drop_prob = 0.1;
        if (index == 2 && incarnation == 0) {
          plan.disconnect_on_call = 7;  // hard mid-run connection loss
        }
        return plan;
      });
  const SimulationResult faulty_result = faulty.run();

  EXPECT_FALSE(faulty_result.aborted);
  EXPECT_TRUE(faulty_result.failed_sites.empty());
  ASSERT_EQ(faulty_result.history.size(), 5u);
  for (const RoundMetrics& m : faulty_result.history) {
    EXPECT_EQ(m.num_contributions, 8);
  }
  EXPECT_TRUE(bit_equal(clean_result.final_model, faulty_result.final_model));
}

TEST_F(FaultsTest, ConvergesUnderEachFaultModeInProc) {
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 4;
  SimulatorRunner clean = make_runner(config);
  const nn::StateDict reference = clean.run().final_model;

  struct Mode {
    const char* name;
    FaultPlan plan;
  };
  std::vector<Mode> modes(4);
  modes[0].name = "drop";
  modes[0].plan.drop_prob = 0.15;
  modes[1].name = "delay";
  modes[1].plan.delay_prob = 0.3;
  modes[1].plan.delay_ms = 3;
  modes[2].name = "duplicate";
  modes[2].plan.duplicate_prob = 0.2;
  modes[3].name = "corrupt";
  modes[3].plan.corrupt_prob = 0.15;

  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    SimulatorRunner runner = make_runner(config);
    runner.set_fault_planner(
        [&mode](std::int64_t index, const std::string&,
                std::int64_t incarnation) -> std::optional<FaultPlan> {
          FaultPlan plan = mode.plan;
          plan.seed = 0xb0de + static_cast<std::uint64_t>(index) * 7919 +
                      static_cast<std::uint64_t>(incarnation);
          return plan;
        });
    const SimulationResult result = runner.run();
    EXPECT_FALSE(result.aborted);
    EXPECT_TRUE(result.failed_sites.empty());
    EXPECT_TRUE(bit_equal(reference, result.final_model));
  }
}

TEST_F(FaultsTest, PartitionedSiteDegradesToMinClients) {
  SimulatorConfig config;
  config.num_clients = 4;
  config.num_rounds = 2;
  config.min_clients = 3;
  config.round_deadline_ms = 250;
  config.client_retry = {5, 40, 2.0, 3, 0.0};
  SimulatorRunner runner = make_runner(config);
  // site-4 registers cleanly, then its link dies for good: the first
  // connection drops after a couple of calls and every reconnect is a
  // black hole that swallows all requests.
  runner.set_fault_planner(
      [](std::int64_t index, const std::string&,
         std::int64_t incarnation) -> std::optional<FaultPlan> {
        if (index != 3) return std::nullopt;
        FaultPlan plan;
        plan.seed = 0xdead + static_cast<std::uint64_t>(incarnation);
        if (incarnation == 0) {
          plan.disconnect_on_call = 2;
        } else {
          plan.drop_prob = 1.0;
        }
        return plan;
      });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.failed_sites,
            (std::vector<std::string>{"site-4"}));
  ASSERT_EQ(result.history.size(), 2u);
  for (const RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 3);
    EXPECT_TRUE(m.deadline_fired);
  }
}

// ---------------------------------------------------------------------------
// Crash-restart resume
// ---------------------------------------------------------------------------

TEST_F(FaultsTest, KilledServerResumesFromCheckpointBitForBit) {
  const std::string checkpoint = path("resume.bin");
  SimulatorConfig config;
  config.num_clients = 3;
  config.num_rounds = 6;

  // Reference: the same federation, never interrupted.
  SimulatorRunner uninterrupted = make_runner(config);
  const nn::StateDict reference = uninterrupted.run().final_model;

  // Phase 1: run with persistence and kill the server mid-flight, right
  // after round 2 completes (simulating an operator crash between rounds).
  config.persist_path = checkpoint;
  std::int64_t killed_after = -1;
  {
    SimulatorRunner runner = make_runner(config, /*train_ms=*/10);
    std::promise<void> round_two_done;
    runner.server().add_round_observer(
        [&round_two_done](std::int64_t round, const nn::StateDict&,
                          const RoundMetrics&) {
          if (round == 2) round_two_done.set_value();
        });
    std::thread killer([&runner, &round_two_done] {
      round_two_done.get_future().wait();
      runner.server().abort("operator kill");
    });
    const SimulationResult first = runner.run();
    killer.join();
    ASSERT_TRUE(first.aborted);
    EXPECT_EQ(first.abort_reason, "operator kill");
    ASSERT_GE(first.history.size(), 3u);
    ASSERT_LT(first.history.size(), 6u);
    killed_after = static_cast<std::int64_t>(first.history.size()) - 1;
  }

  // Phase 2: a fresh server resumes from the checkpoint and finishes the
  // remaining rounds; the result matches the uninterrupted run exactly.
  config.resume = true;
  SimulatorRunner resumed = make_runner(config);
  const SimulationResult second = resumed.run();
  EXPECT_FALSE(second.aborted);
  EXPECT_EQ(second.resumed_from_round, killed_after);
  ASSERT_EQ(second.history.size(), 6u);
  for (std::size_t i = 0; i < second.history.size(); ++i) {
    EXPECT_EQ(second.history[i].round, static_cast<std::int64_t>(i));
    EXPECT_EQ(second.history[i].num_contributions, 3);
  }
  EXPECT_TRUE(bit_equal(reference, second.final_model));
}

TEST_F(FaultsTest, ResumeOfCompletedRunIsANoOp) {
  const std::string checkpoint = path("complete.bin");
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 3;
  config.persist_path = checkpoint;
  SimulatorRunner first = make_runner(config);
  const SimulationResult done = first.run();
  ASSERT_EQ(done.history.size(), 3u);

  config.resume = true;
  SimulatorRunner again = make_runner(config);
  const SimulationResult replay = again.run();
  EXPECT_FALSE(replay.aborted);
  EXPECT_EQ(replay.resumed_from_round, 2);
  EXPECT_EQ(replay.history.size(), 3u);  // nothing re-run
  EXPECT_TRUE(bit_equal(done.final_model, replay.final_model));
}

}  // namespace
}  // namespace cppflare::flare
