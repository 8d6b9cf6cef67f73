// Server/client protocol tests over the in-process transport: registration,
// token validation, task issuance, aggregation round flow, and misbehaving
// peers.
#include <gtest/gtest.h>

#include <thread>

#include "core/logging.h"
#include "flare/client.h"
#include "flare/server.h"

namespace cppflare::flare {
namespace {

constexpr const char* kJob = "test-project";

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Learner that returns fixed weights regardless of the incoming model.
class ConstantLearner : public Learner {
 public:
  ConstantLearner(std::string site, std::vector<float> weights,
                  std::int64_t samples)
      : site_(std::move(site)), weights_(std::move(weights)), samples_(samples) {}

  Dxo train(const Dxo& global, const FLContext& ctx) override {
    EXPECT_EQ(global.kind(), DxoKind::kWeights);
    rounds_seen_.push_back(ctx.current_round);
    Dxo update(DxoKind::kWeights, dict_of(weights_));
    update.set_meta_int(Dxo::kMetaNumSamples, samples_);
    update.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

  std::vector<std::int64_t> rounds_seen_;

 private:
  std::string site_;
  std::vector<float> weights_;
  std::int64_t samples_;
};

class ServerClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    registry_ = Provisioner(kJob, 11).provision_sites(2);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  std::unique_ptr<FederatedServer> make_server(std::int64_t rounds) {
    ServerConfig config;
    config.job_id = kJob;
    config.num_rounds = rounds;
    config.min_clients = 2;
    config.expected_clients = 2;
    return std::make_unique<FederatedServer>(
        config, registry_, dict_of({0.0f, 0.0f}),
        std::make_unique<FedAvgAggregator>(true));
  }

  std::unique_ptr<FederatedClient> make_client(
      FederatedServer& server, const std::string& name,
      std::shared_ptr<Learner> learner) {
    ClientConfig config;
    config.job_id = kJob;
    config.max_idle_ms = 5000;
    return std::make_unique<FederatedClient>(
        config, registry_.at(name),
        std::make_unique<InProcConnection>(server.async_dispatcher()),
        std::move(learner));
  }

  std::map<std::string, Credential> registry_;
};

TEST_F(ServerClientTest, TwoClientsCompleteAllRounds) {
  auto server = make_server(3);
  auto l1 = std::make_shared<ConstantLearner>("site-1", std::vector<float>{1, 1},
                                              300);
  auto l2 = std::make_shared<ConstantLearner>("site-2", std::vector<float>{4, 0},
                                              100);
  auto c1 = make_client(*server, "site-1", l1);
  auto c2 = make_client(*server, "site-2", l2);

  std::thread t1([&] { c1->run(); });
  std::thread t2([&] { c2->run(); });
  t1.join();
  t2.join();

  EXPECT_TRUE(server->finished());
  EXPECT_EQ(c1->rounds_participated(), 3);
  EXPECT_EQ(c2->rounds_participated(), 3);
  EXPECT_EQ(l1->rounds_seen_, (std::vector<std::int64_t>{0, 1, 2}));

  // Weighted FedAvg fixed point: (300*1 + 100*4)/400 = 1.75, 0.75.
  const nn::StateDict global = server->global_model();
  EXPECT_NEAR(global.at("w").values[0], 1.75f, 1e-5f);
  EXPECT_NEAR(global.at("w").values[1], 0.75f, 1e-5f);

  const auto history = server->history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_EQ(history[0].total_samples, 400);
}

TEST_F(ServerClientTest, BadTokenRejected) {
  auto server = make_server(1);
  Credential bad = registry_.at("site-1");
  bad.token = "00000000-0000-0000-0000-000000000000";
  ClientConfig config;
  config.job_id = kJob;
  FederatedClient client(config, bad,
                         std::make_unique<InProcConnection>(server->async_dispatcher()),
                         std::make_shared<ConstantLearner>(
                             "site-1", std::vector<float>{0, 0}, 1));
  EXPECT_THROW(client.run(), ProtocolError);
}

TEST_F(ServerClientTest, UnknownSenderGetsUnverifiableResponse) {
  auto server = make_server(1);
  InProcConnection connection(server->async_dispatcher());
  // Seal as an unprovisioned participant with a random key.
  const std::vector<std::uint8_t> rogue_key(32, 0x7);
  const auto sealed = seal("rogue", rogue_key, 1,
                           pack(RegisterRequest{"rogue", "tok"}));
  const auto response = connection.call(sealed);
  // The response cannot be verified with the rogue key (empty-key seal).
  EXPECT_THROW(open(response, rogue_key), ProtocolError);
}

TEST_F(ServerClientTest, ForgedEnvelopeFromKnownSenderRejected) {
  auto server = make_server(1);
  InProcConnection connection(server->async_dispatcher());
  const std::vector<std::uint8_t> wrong_key(32, 0x9);
  const auto sealed = seal("site-1", wrong_key, 1,
                           pack(RegisterRequest{"site-1", registry_.at("site-1").token}));
  const auto response = connection.call(sealed);
  // Server answers with an error sealed under the legitimate site key.
  const Envelope env = open(response, registry_.at("site-1").secret);
  EXPECT_EQ(peek_type(env.payload), MsgType::kError);
}

TEST_F(ServerClientTest, GetTaskWithoutSessionFails) {
  auto server = make_server(1);
  InProcConnection connection(server->async_dispatcher());
  const Credential& cred = registry_.at("site-1");
  const auto sealed =
      seal(cred.name, cred.secret, 1, pack(GetTaskRequest{"bogus"}), kJob);
  const auto response = connection.call(sealed);
  const Envelope env = open(response, cred.secret);
  EXPECT_EQ(peek_type(env.payload), MsgType::kError);
}

TEST_F(ServerClientTest, StaleRoundSubmissionRejected) {
  auto server = make_server(2);
  InProcConnection connection(server->async_dispatcher());
  const Credential& c1 = registry_.at("site-1");
  const Credential& c2 = registry_.at("site-2");
  SequenceSource seq1, seq2;

  auto call = [&](const Credential& cred, SequenceSource& seq,
                  const std::vector<std::uint8_t>& frame) {
    const auto resp =
        connection.call(seal(cred.name, cred.secret, seq.next(), frame, kJob));
    const Envelope env = open(resp, cred.secret);
    return std::vector<std::uint8_t>(env.payload.begin(), env.payload.end());
  };

  const RegisterAck a1 = decode_register_ack(
      call(c1, seq1, pack(RegisterRequest{c1.name, c1.token})));
  const RegisterAck a2 = decode_register_ack(
      call(c2, seq2, pack(RegisterRequest{c2.name, c2.token})));
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(a2.accepted);

  // Both fetch tasks for round 0.
  const TaskMessage t1 = decode_task(call(c1, seq1, pack(GetTaskRequest{a1.session_id})));
  ASSERT_EQ(t1.task, TaskKind::kTrain);
  ASSERT_EQ(t1.round, 0);

  // site-1 submits for a wrong (future) round.
  SubmitUpdateRequest submit;
  submit.session_id = a1.session_id;
  submit.round = 1;
  submit.payload = Dxo(DxoKind::kWeights, dict_of({1, 1}));
  submit.payload.set_meta_int(Dxo::kMetaNumSamples, 10);
  const SubmitAck ack = decode_submit_ack(call(c1, seq1, pack(submit)));
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.message, "stale round");
}

TEST_F(ServerClientTest, DuplicateSubmissionRejected) {
  auto server = make_server(2);
  InProcConnection connection(server->async_dispatcher());
  const Credential& c1 = registry_.at("site-1");
  const Credential& c2 = registry_.at("site-2");
  SequenceSource seq1, seq2;
  auto call = [&](const Credential& cred, SequenceSource& seq,
                  const std::vector<std::uint8_t>& frame) {
    const auto response =
        connection.call(seal(cred.name, cred.secret, seq.next(), frame, kJob));
    const Envelope env = open(response, cred.secret);
    return std::vector<std::uint8_t>(env.payload.begin(), env.payload.end());
  };
  const RegisterAck a1 = decode_register_ack(
      call(c1, seq1, pack(RegisterRequest{c1.name, c1.token})));
  decode_register_ack(call(c2, seq2, pack(RegisterRequest{c2.name, c2.token})));

  SubmitUpdateRequest submit;
  submit.session_id = a1.session_id;
  submit.round = 0;
  submit.payload = Dxo(DxoKind::kWeights, dict_of({1, 1}));
  submit.payload.set_meta_int(Dxo::kMetaNumSamples, 10);
  EXPECT_TRUE(decode_submit_ack(call(c1, seq1, pack(submit))).accepted);
  EXPECT_FALSE(decode_submit_ack(call(c1, seq1, pack(submit))).accepted);
}

TEST_F(ServerClientTest, TaskNoneBeforeAllRegistered) {
  auto server = make_server(1);
  InProcConnection connection(server->async_dispatcher());
  const Credential& c1 = registry_.at("site-1");
  SequenceSource seq1;
  auto call = [&](const std::vector<std::uint8_t>& frame) {
    const auto response =
        connection.call(seal(c1.name, c1.secret, seq1.next(), frame, kJob));
    const Envelope env = open(response, c1.secret);
    return std::vector<std::uint8_t>(env.payload.begin(), env.payload.end());
  };
  const RegisterAck ack = decode_register_ack(
      call(pack(RegisterRequest{c1.name, c1.token})));
  const TaskMessage task = decode_task(call(pack(GetTaskRequest{ack.session_id})));
  EXPECT_EQ(task.task, TaskKind::kNone);  // expected_clients = 2, only 1 joined
}

TEST_F(ServerClientTest, ReplayedEnvelopeRejected) {
  auto server = make_server(1);
  InProcConnection connection(server->async_dispatcher());
  const Credential& c1 = registry_.at("site-1");
  const auto sealed = seal(c1.name, c1.secret, 1,
                           pack(RegisterRequest{c1.name, c1.token}), kJob);
  const auto first_response = connection.call(sealed);
  const Envelope first = open(first_response, c1.secret);
  EXPECT_EQ(peek_type(first.payload), MsgType::kRegisterAck);
  const auto replay_response = connection.call(sealed);
  const Envelope replay = open(replay_response, c1.secret);
  EXPECT_EQ(peek_type(replay.payload), MsgType::kError);
}

TEST_F(ServerClientTest, ServerEventsFireInOrder) {
  auto server = make_server(1);
  std::vector<EventType> seen;
  std::mutex mu;
  for (EventType type :
       {EventType::kStartRun, EventType::kRoundStarted, EventType::kBeforeAggregation,
        EventType::kAfterAggregation, EventType::kRoundDone, EventType::kEndRun}) {
    server->events().subscribe(type, [&seen, &mu, type](const FLContext&) {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(type);
    });
  }
  auto c1 = make_client(*server, "site-1",
                        std::make_shared<ConstantLearner>(
                            "site-1", std::vector<float>{1, 1}, 5));
  auto c2 = make_client(*server, "site-2",
                        std::make_shared<ConstantLearner>(
                            "site-2", std::vector<float>{2, 2}, 5));
  std::thread t1([&] { c1->run(); });
  std::thread t2([&] { c2->run(); });
  t1.join();
  t2.join();
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0], EventType::kStartRun);
  EXPECT_EQ(seen[1], EventType::kRoundStarted);
  EXPECT_EQ(seen[2], EventType::kBeforeAggregation);
  EXPECT_EQ(seen[3], EventType::kAfterAggregation);
  EXPECT_EQ(seen[4], EventType::kRoundDone);
  EXPECT_EQ(seen[5], EventType::kEndRun);
}

TEST_F(ServerClientTest, InboundFilterAppliedBeforeAggregation) {
  auto server = make_server(1);
  server->inbound_filters().add(std::make_shared<NormClipFilter>(0.5));
  auto c1 = make_client(*server, "site-1",
                        std::make_shared<ConstantLearner>(
                            "site-1", std::vector<float>{30, 40}, 5));
  auto c2 = make_client(*server, "site-2",
                        std::make_shared<ConstantLearner>(
                            "site-2", std::vector<float>{30, 40}, 5));
  std::thread t1([&] { c1->run(); });
  std::thread t2([&] { c2->run(); });
  t1.join();
  t2.join();
  const nn::StateDict global = server->global_model();
  const auto& w = global.at("w").values;
  EXPECT_NEAR(std::sqrt(w[0] * w[0] + w[1] * w[1]), 0.5, 1e-4);
}

}  // namespace
}  // namespace cppflare::flare
