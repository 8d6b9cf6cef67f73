#include "flare/messages.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/error.h"
#include "flare/secure_channel_nonce.h"

namespace cppflare::flare {
namespace {

TEST(Messages, RegisterRoundTrip) {
  const auto frame = pack(RegisterRequest{"site-3", "tok-abc"});
  EXPECT_EQ(peek_type(frame), MsgType::kRegister);
  const RegisterRequest m = decode_register(frame);
  EXPECT_EQ(m.site_name, "site-3");
  EXPECT_EQ(m.token, "tok-abc");
}

TEST(Messages, RegisterAckRoundTrip) {
  const auto frame = pack(RegisterAck{true, "sess-1", "welcome"});
  const RegisterAck m = decode_register_ack(frame);
  EXPECT_TRUE(m.accepted);
  EXPECT_EQ(m.session_id, "sess-1");
  EXPECT_EQ(m.message, "welcome");
}

TEST(Messages, GetTaskRoundTrip) {
  const auto frame = pack(GetTaskRequest{"sess-9"});
  EXPECT_EQ(decode_get_task(frame).session_id, "sess-9");
}

TEST(Messages, TaskRoundTripWithPayload) {
  nn::StateDict d;
  d.insert("w", {{2}, {1.0f, 2.0f}});
  TaskMessage t;
  t.task = TaskKind::kTrain;
  t.round = 3;
  t.total_rounds = 10;
  t.payload = Dxo(DxoKind::kWeights, d);
  const auto frame = pack(t);
  const TaskMessage m = decode_task(frame);
  EXPECT_EQ(m.task, TaskKind::kTrain);
  EXPECT_EQ(m.round, 3);
  EXPECT_EQ(m.total_rounds, 10);
  EXPECT_EQ(m.payload.data().at("w").values[1], 2.0f);
}

TEST(Messages, SubmitRoundTrip) {
  SubmitUpdateRequest req;
  req.session_id = "s";
  req.round = 7;
  req.payload.set_meta_int(Dxo::kMetaNumSamples, 55);
  const SubmitUpdateRequest m = decode_submit(pack(req));
  EXPECT_EQ(m.session_id, "s");
  EXPECT_EQ(m.round, 7);
  EXPECT_EQ(m.payload.meta_int(Dxo::kMetaNumSamples), 55);
}

TEST(Messages, SubmitAckAndErrorRoundTrip) {
  const SubmitAck a = decode_submit_ack(pack(SubmitAck{false, "stale"}));
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.message, "stale");
  const ErrorMessage e = decode_error(pack(ErrorMessage{"bad"}));
  EXPECT_EQ(e.message, "bad");
}

TEST(Messages, UnmaskRequestRoundTrip) {
  nn::StateDict skel;
  skel.insert("w", {{2}, {0.0f, 0.0f}});
  UnmaskRequest req;
  req.round = 6;
  req.wave = 2;
  req.dropped = {"site-3", "site-7"};
  req.skeleton = Dxo(DxoKind::kWeights, skel);
  const auto frame = pack(req);
  EXPECT_EQ(peek_type(frame), MsgType::kUnmaskRequest);
  const UnmaskRequest m = decode_unmask_request(frame);
  EXPECT_EQ(m.round, 6);
  EXPECT_EQ(m.wave, 2);
  EXPECT_EQ(m.dropped, req.dropped);
  EXPECT_EQ(m.skeleton.data().at("w").values.size(), 2u);
  // Empty dropped set survives too (a degenerate but legal wave).
  const UnmaskRequest empty =
      decode_unmask_request(pack(UnmaskRequest{4, 0, {}, Dxo{}}));
  EXPECT_TRUE(empty.dropped.empty());
}

TEST(Messages, UnmaskRequestWithoutSkeletonThrows) {
  // A frame that stops after the dropped list (the pre-durability shape)
  // is truncated: the skeleton is a required field.
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MsgType::kUnmaskRequest));
  w.write_i64(9);
  w.write_i64(1);
  w.write_u32(1);
  w.write_string("site-4");
  EXPECT_THROW((void)decode_unmask_request(w.take()), Error);
}

TEST(Messages, UnmaskResponseRoundTrip) {
  nn::StateDict d;
  d.insert("w", {{2}, {0.5f, -1.5f}});
  UnmaskResponse resp;
  resp.session_id = "sess-2";
  resp.round = 6;
  resp.wave = 2;
  resp.share = Dxo(DxoKind::kWeights, d);
  const auto frame = pack(resp);
  EXPECT_EQ(peek_type(frame), MsgType::kUnmaskResponse);
  const UnmaskResponse m = decode_unmask_response(frame);
  EXPECT_EQ(m.session_id, "sess-2");
  EXPECT_EQ(m.round, 6);
  EXPECT_EQ(m.wave, 2);
  EXPECT_EQ(m.share.data().at("w").values[1], -1.5f);
}

TEST(Messages, UnmaskFramesRejectWrongTypeAndTruncation) {
  EXPECT_THROW(decode_unmask_request(pack(GetTaskRequest{"s"})), ProtocolError);
  EXPECT_THROW(decode_unmask_response(pack(GetTaskRequest{"s"})), ProtocolError);
  auto frame = pack(UnmaskRequest{1, 0, {"site-1"}, Dxo{}});
  frame.resize(frame.size() - 3);
  EXPECT_THROW(decode_unmask_request(frame), SerializationError);
}

TEST(Messages, SubmitAckCarriesEveryRejectReason) {
  for (std::uint8_t raw = 0;
       raw <= static_cast<std::uint8_t>(RejectReason::kRecoveryInProgress);
       ++raw) {
    const RejectReason reason = static_cast<RejectReason>(raw);
    const SubmitAck a =
        decode_submit_ack(pack(SubmitAck{false, "why", reason}));
    EXPECT_EQ(a.reason, reason);
    EXPECT_STRNE(reject_reason_name(reason), "");
  }
  // Accepted acks default to kNone.
  const SubmitAck ok = decode_submit_ack(pack(SubmitAck{true, "ok"}));
  EXPECT_EQ(ok.reason, RejectReason::kNone);
}

TEST(Messages, SubmitAckRejectsUnknownReasonByte) {
  // Corrupt the trailing reason byte past the enum range: the decoder must
  // refuse rather than cast garbage into the enum.
  std::vector<std::uint8_t> frame = pack(SubmitAck{false, "x"});
  frame.back() = 200;
  EXPECT_THROW(decode_submit_ack(frame), ProtocolError);
}

Dxo sample_dxo() {
  nn::StateDict d;
  d.insert("a.w", {{2, 3}, {1, 2, 3, 4, 5, 6}});
  d.insert("b", {{1}, {-0.5f}});
  Dxo dxo(DxoKind::kWeightDiff, d);
  dxo.set_meta_int(Dxo::kMetaNumSamples, 12);
  dxo.set_meta_double(Dxo::kMetaTrainLoss, 0.25);
  return dxo;
}

// encoded_size is what pack and seal_message reserve, and seal_message
// writes the length prefix from it before encoding: it must be exact.
TEST(Messages, EncodedSizeIsExactForEveryMessage) {
  const auto check = [](const auto& m) {
    EXPECT_EQ(encoded_size(m), pack(m).size());
  };
  check(RegisterRequest{"site-1", "tok"});
  check(RegisterAck{true, "sess-1", "welcome"});
  check(GetTaskRequest{"sess-1", 250});
  check(TaskMessage{TaskKind::kTrain, 2, 5, sample_dxo()});
  check(TaskMessage{});
  check(SubmitUpdateRequest{"sess-2", 4, sample_dxo()});
  check(SubmitAck{false, "stale", RejectReason::kStaleRound});
  check(ErrorMessage{"bad", ErrorCode::kRetryable});
  check(UnmaskRequest{3, 1, {"site-2", "site-5"}, sample_dxo()});
  check(UnmaskResponse{"sess-3", 3, 1, sample_dxo()});
}

TEST(Messages, SealMessageEqualsSealOfPack) {
  const std::vector<std::uint8_t> key(32, 0x5a);
  const SubmitUpdateRequest m{"sess-2", 4, sample_dxo()};
  const auto sealed = seal_message("site-1", key, 9, m, "job-a");
  // Every seal draws a fresh nonce: seal the pack under the one `sealed`
  // drew, which follows the magic, both names, the sequence and the length.
  core::AeadNonce nonce{};
  std::copy_n(sealed.begin() + 4 + (4 + 6) + (4 + 5) + 8 + 8, nonce.size(), nonce.begin());
  EXPECT_EQ(sealed, seal_with_nonce("site-1", key, 9, pack(m), "job-a", nonce));
  const SubmitUpdateRequest back = decode_submit(open(sealed, key).payload);
  EXPECT_EQ(back.payload.data(), m.payload.data());
  EXPECT_EQ(back.payload.meta_entries(), m.payload.meta_entries());
}

// Found by FuzzMessages: the dropped-site count used to size a reserve()
// before any name was read, so a 7-byte frame claiming 2^32-1 names threw
// std::bad_alloc instead of a typed error.
TEST(Messages, UnmaskRequestHostileNameCountIsATypedError) {
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MsgType::kUnmaskRequest));
  w.write_i64(1);
  w.write_i64(0);
  w.write_u32(0xffffffffu);
  EXPECT_THROW(decode_unmask_request(w.bytes()), SerializationError);
}

TEST(Messages, PeekTypeRejectsGarbage) {
  EXPECT_THROW(peek_type({}), ProtocolError);
  EXPECT_THROW(peek_type(std::vector<std::uint8_t>{0}), ProtocolError);
  EXPECT_THROW(peek_type(std::vector<std::uint8_t>{200}), ProtocolError);
}

TEST(Messages, DecodeWrongTypeThrows) {
  const auto frame = pack(GetTaskRequest{"s"});
  EXPECT_THROW(decode_register(frame), ProtocolError);
  EXPECT_THROW(decode_submit(frame), ProtocolError);
}

TEST(Messages, TruncatedFrameThrows) {
  auto frame = pack(RegisterRequest{"site-1", "token"});
  frame.resize(frame.size() / 2);
  EXPECT_THROW(decode_register(frame), SerializationError);
}

TEST(Messages, BadTaskKindRejected) {
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MsgType::kTask));
  w.write_u8(9);  // invalid TaskKind
  EXPECT_THROW(decode_task(w.bytes()), ProtocolError);
}

}  // namespace
}  // namespace cppflare::flare
