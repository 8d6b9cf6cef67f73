// SiteSession stepped frame by frame against hand-sealed server replies, with
// no server and no transport: every error class the protocol defines, the
// resend discipline (fresh sequence numbers, unchanged payloads) and the
// step transitions register -> poll -> train/submit | unmask -> ... -> stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/logging.h"
#include "flare/site_session.h"

namespace cppflare::flare {
namespace {

constexpr const char* kJob = "session-job";

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

/// Moves every weight halfway toward 1.
class HalfwayLearner : public Learner {
 public:
  Dxo train(const Dxo& global, const FLContext&) override {
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (1.0f - v);
    }
    Dxo update(DxoKind::kWeights, std::move(updated));
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    return update;
  }
  std::string site_name() const override { return "site-1"; }
};

class SiteSessionTest : public ::testing::Test {
 protected:
  SiteSessionTest()
      : cred_(Provisioner(kJob, 5).provision("site-1")),
        session_(cred_, kJob, 500, std::make_shared<HalfwayLearner>()) {}

  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  /// A reply as the server would seal it: next server sequence, our key.
  template <class Message>
  std::vector<std::uint8_t> reply(const Message& m, const std::string& job = kJob,
                                  const std::string& sender = "server") {
    return seal_message(sender, cred_.secret, ++server_seq_, m, job);
  }

  std::vector<std::uint8_t> error(ErrorCode code) {
    return reply(ErrorMessage{"injected", code});
  }

  /// Opens one of the session's frames.
  Envelope opened(const std::vector<std::uint8_t>& frame) const {
    return open(frame, cred_.secret);
  }

  void register_as(const std::string& session_id) {
    const auto frame = session_.next_frame();
    EXPECT_EQ(peek_type(opened(frame).payload), MsgType::kRegister);
    ASSERT_EQ(session_.on_reply(reply(RegisterAck{true, session_id, ""})),
              SiteSession::Outcome::kAdvanced);
  }

  /// Registers, polls and trains on round 2: the next frame is the submit.
  void train_round() {
    register_as("sess-1");
    ASSERT_EQ(session_.step(), SiteSession::Step::kPoll);
    (void)session_.next_frame();
    const TaskMessage task{TaskKind::kTrain, 2, 5,
                           Dxo(DxoKind::kWeights, dict_of({0.0f, 3.0f}))};
    ASSERT_EQ(session_.on_reply(reply(task)), SiteSession::Outcome::kAdvanced);
    ASSERT_EQ(session_.step(), SiteSession::Step::kSubmit);
  }

  Credential cred_;
  SiteSession session_;
  std::uint64_t server_seq_ = 0;
};

TEST_F(SiteSessionTest, FramesCarryTheJobAndStrictlyIncreasingSequences) {
  const auto first = session_.next_frame();
  const auto second = session_.next_frame();
  EXPECT_EQ(opened(first).job_id, kJob);
  EXPECT_EQ(opened(first).sender, "site-1");
  EXPECT_LT(opened(first).sequence, opened(second).sequence);
  const RegisterRequest req = decode_register(opened(second).payload);
  EXPECT_EQ(req.site_name, "site-1");
  EXPECT_EQ(req.token, cred_.token);
}

TEST_F(SiteSessionTest, ReplyBoundToAnotherJobIsProtocolError) {
  (void)session_.next_frame();
  EXPECT_THROW(session_.on_reply(reply(RegisterAck{true, "sess-1", ""}, "other-job")),
               ProtocolError);
}

TEST_F(SiteSessionTest, UnboundReplyIsAccepted) {
  // The job router answers frames it cannot verify unbound; that is not a
  // cross-job reply.
  (void)session_.next_frame();
  EXPECT_EQ(session_.on_reply(reply(RegisterAck{true, "sess-1", ""}, "")),
            SiteSession::Outcome::kAdvanced);
}

TEST_F(SiteSessionTest, ReplyNotFromServerIsProtocolError) {
  (void)session_.next_frame();
  EXPECT_THROW(
      session_.on_reply(reply(RegisterAck{true, "sess-1", ""}, kJob, "site-2")),
      ProtocolError);
}

TEST_F(SiteSessionTest, ReplayedServerSequenceIsProtocolError) {
  register_as("sess-1");
  (void)session_.next_frame();
  server_seq_ = 0;  // the next reply reuses sequence 1
  EXPECT_THROW(session_.on_reply(reply(TaskMessage{})), ProtocolError);
}

TEST_F(SiteSessionTest, WrongJobAndFatalErrorsAreProtocolErrors) {
  for (const ErrorCode code : {ErrorCode::kWrongJob, ErrorCode::kFatal}) {
    SiteSession session(cred_, kJob, 500, std::make_shared<HalfwayLearner>());
    (void)session.next_frame();
    EXPECT_THROW(session.on_reply(error(code)), ProtocolError)
        << static_cast<int>(code);
  }
}

TEST_F(SiteSessionTest, RejectedRegistrationIsProtocolError) {
  (void)session_.next_frame();
  EXPECT_THROW(session_.on_reply(reply(RegisterAck{false, "", "invalid token"})),
               ProtocolError);
}

TEST_F(SiteSessionTest, RetryableAndUnverifiableRepliesResendUnderFreshSequence) {
  train_round();
  const auto first = session_.next_frame();
  EXPECT_THROW(session_.on_reply(error(ErrorCode::kRetryable)), TransportError);
  EXPECT_EQ(session_.step(), SiteSession::Step::kSubmit);

  const auto second = session_.next_frame();
  // An error sealed under a key we do not hold (the server could not
  // identify us), then bytes damaged in flight.
  const std::vector<std::uint8_t> wrong_key(32, 0x11);
  EXPECT_THROW(session_.on_reply(seal_message("server", wrong_key, ++server_seq_,
                                              ErrorMessage{"who?", ErrorCode::kFatal})),
               TransportError);
  const auto third = session_.next_frame();
  std::vector<std::uint8_t> damaged = reply(SubmitAck{true, "", RejectReason::kNone});
  damaged.back() ^= 0x01;
  EXPECT_THROW(session_.on_reply(damaged), TransportError);
  const auto fourth = session_.next_frame();

  EXPECT_LT(opened(first).sequence, opened(second).sequence);
  EXPECT_LT(opened(second).sequence, opened(third).sequence);
  EXPECT_LT(opened(third).sequence, opened(fourth).sequence);
  // Only the sequence changed: every resend carries the same request.
  // (Each open decrypts into its own buffer: take both ends of one view.)
  const Envelope first_open = opened(first);
  const Envelope fourth_open = opened(fourth);
  EXPECT_TRUE(std::ranges::equal(first_open.payload, fourth_open.payload));

  EXPECT_EQ(session_.on_reply(reply(SubmitAck{true, "", RejectReason::kNone})),
            SiteSession::Outcome::kAdvanced);
  EXPECT_EQ(session_.rounds_participated(), 1);
  EXPECT_EQ(session_.step(), SiteSession::Step::kPoll);
}

TEST_F(SiteSessionTest, UnknownSessionReregistersAndResendsTheSubmitUnchanged) {
  train_round();
  const auto original = session_.next_frame();
  SubmitUpdateRequest sent = decode_submit(opened(original).payload);
  EXPECT_EQ(sent.session_id, "sess-1");
  EXPECT_EQ(sent.round, 2);

  for (int recovery = 1; recovery <= 3; ++recovery) {
    EXPECT_EQ(session_.on_reply(error(ErrorCode::kUnknownSession)),
              SiteSession::Outcome::kAdvanced);
    ASSERT_EQ(session_.step(), SiteSession::Step::kRegister);
    const std::string session_id = "sess-" + std::to_string(recovery + 1);
    register_as(session_id);
    ASSERT_EQ(session_.step(), SiteSession::Step::kSubmit);

    const auto resent_frame = session_.next_frame();
    const SubmitUpdateRequest resent = decode_submit(opened(resent_frame).payload);
    EXPECT_EQ(resent.session_id, session_id);
    sent.session_id = session_id;
    EXPECT_EQ(pack(resent), pack(sent)) << "recovery " << recovery;
  }
  EXPECT_EQ(session_.reregistrations(), 3);
  // A fourth loss of the same step is no longer a transient.
  EXPECT_THROW(session_.on_reply(error(ErrorCode::kUnknownSession)), ProtocolError);
}

TEST_F(SiteSessionTest, UnknownSessionWhileRegisteringIsProtocolError) {
  (void)session_.next_frame();
  EXPECT_THROW(session_.on_reply(error(ErrorCode::kUnknownSession)), ProtocolError);
}

TEST_F(SiteSessionTest, TrainStampsTheRoundAndRunsTheFilters) {
  session_.outbound_filters().add(std::make_shared<NormClipFilter>(0.5));
  train_round();
  const auto frame = session_.next_frame();
  const SubmitUpdateRequest submit = decode_submit(opened(frame).payload);
  EXPECT_EQ(submit.payload.meta_int(Dxo::kMetaRound, -1), 2);
  const auto& w = submit.payload.data().at("w").values;
  EXPECT_NEAR(std::sqrt(w[0] * w[0] + w[1] * w[1]), 0.5f, 1e-5f);
}

TEST_F(SiteSessionTest, NoneIsIdleAndStopIsDone) {
  register_as("sess-1");
  (void)session_.next_frame();
  EXPECT_EQ(session_.on_reply(reply(TaskMessage{})), SiteSession::Outcome::kIdle);
  EXPECT_EQ(session_.step(), SiteSession::Step::kPoll);
  const auto poll = session_.next_frame();
  const GetTaskRequest req = decode_get_task(opened(poll).payload);
  EXPECT_EQ(req.session_id, "sess-1");
  EXPECT_EQ(req.wait_ms, 500);
  EXPECT_EQ(session_.on_reply(reply(TaskMessage{TaskKind::kStop, 0, 0, {}})),
            SiteSession::Outcome::kDone);
  EXPECT_EQ(session_.step(), SiteSession::Step::kDone);
  EXPECT_THROW((void)session_.next_frame(), Error);
}

TEST_F(SiteSessionTest, RejectedSubmitIsCountedAndPollingResumes) {
  train_round();
  (void)session_.next_frame();
  EXPECT_EQ(session_.on_reply(
                reply(SubmitAck{false, "norm outlier", RejectReason::kNormOutlier})),
            SiteSession::Outcome::kAdvanced);
  EXPECT_EQ(session_.updates_rejected(), 1);
  EXPECT_EQ(session_.rounds_participated(), 0);
  EXPECT_EQ(session_.step(), SiteSession::Step::kPoll);
}

TEST_F(SiteSessionTest, UnmaskRequestNeedsAProviderAndIsAnswered) {
  const UnmaskRequest ask{4, 1, {"site-3"}, Dxo(DxoKind::kWeights, dict_of({0.0f}))};
  register_as("sess-1");
  (void)session_.next_frame();
  EXPECT_THROW(session_.on_reply(reply(ask)), ProtocolError);

  SiteSession masked(cred_, kJob, 500, std::make_shared<HalfwayLearner>());
  std::vector<std::string> asked_about;
  masked.set_unmask_provider([&](const std::vector<std::string>& dropped,
                                 std::int64_t round, const nn::StateDict&) {
    asked_about = dropped;
    return Dxo(DxoKind::kWeights, dict_of({static_cast<float>(round)}));
  });
  server_seq_ = 0;  // a fresh session tracks server sequences afresh
  (void)masked.next_frame();
  ASSERT_EQ(masked.on_reply(reply(RegisterAck{true, "sess-9", ""})),
            SiteSession::Outcome::kAdvanced);
  (void)masked.next_frame();
  ASSERT_EQ(masked.on_reply(reply(ask)), SiteSession::Outcome::kAdvanced);
  EXPECT_EQ(asked_about, std::vector<std::string>{"site-3"});
  ASSERT_EQ(masked.step(), SiteSession::Step::kUnmask);
  const auto frame = masked.next_frame();
  const UnmaskResponse answer = decode_unmask_response(opened(frame).payload);
  EXPECT_EQ(answer.session_id, "sess-9");
  EXPECT_EQ(answer.round, 4);
  EXPECT_EQ(answer.wave, 1);
  EXPECT_EQ(answer.share.data().at("w").values[0], 4.0f);
  EXPECT_EQ(masked.on_reply(reply(SubmitAck{true, "", RejectReason::kNone})),
            SiteSession::Outcome::kAdvanced);
  EXPECT_EQ(masked.unmask_answers(), 1);
  EXPECT_EQ(masked.step(), SiteSession::Step::kPoll);
}

}  // namespace
}  // namespace cppflare::flare
