#include "flare/messages.h"

#include <algorithm>

#include "core/error.h"

namespace cppflare::flare {

namespace {

void write_tag(core::ByteWriter& w, MsgType type) {
  w.write_u8(static_cast<std::uint8_t>(type));
}

// Fixed-width field sizes, named for the encoded_size sums below.
constexpr std::size_t kU8 = 1;
constexpr std::size_t kU32 = 4;
constexpr std::size_t kI64 = 8;

core::ByteReader expect(std::span<const std::uint8_t> frame, MsgType type) {
  core::ByteReader r(frame);
  const std::uint8_t tag = r.read_u8();
  if (tag != static_cast<std::uint8_t>(type)) {
    throw ProtocolError("expected message type " +
                        std::to_string(static_cast<int>(type)) + ", got " +
                        std::to_string(static_cast<int>(tag)));
  }
  return r;
}

}  // namespace

void encode(const RegisterRequest& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kRegister);
  w.write_string(m.site_name);
  w.write_string(m.token);
}

void encode(const RegisterAck& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kRegisterAck);
  w.write_bool(m.accepted);
  w.write_string(m.session_id);
  w.write_string(m.message);
}

void encode(const GetTaskRequest& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kGetTask);
  w.write_string(m.session_id);
  w.write_i64(m.wait_ms);
}

void encode(const TaskMessage& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kTask);
  w.write_u8(static_cast<std::uint8_t>(m.task));
  w.write_i64(m.round);
  w.write_i64(m.total_rounds);
  m.payload.serialize(w);
}

void encode(const SubmitUpdateRequest& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kSubmitUpdate);
  w.write_string(m.session_id);
  w.write_i64(m.round);
  m.payload.serialize(w);
}

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kSchemaMismatch: return "schema_mismatch";
    case RejectReason::kNonFinite: return "non_finite";
    case RejectReason::kNormOutlier: return "norm_outlier";
    case RejectReason::kStaleRound: return "stale_round";
    case RejectReason::kBadSampleCount: return "bad_sample_count";
    case RejectReason::kQuarantined: return "quarantined";
    case RejectReason::kDuplicate: return "duplicate";
    case RejectReason::kNotSampled: return "not_sampled";
    case RejectReason::kAggregatorRefused: return "aggregator_refused";
    case RejectReason::kRunOver: return "run_over";
    case RejectReason::kRecoveryInProgress: return "recovery_in_progress";
  }
  return "unknown";
}

void encode(const SubmitAck& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kSubmitAck);
  w.write_bool(m.accepted);
  w.write_string(m.message);
  w.write_u8(static_cast<std::uint8_t>(m.reason));
}

void encode(const ErrorMessage& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kError);
  w.write_string(m.message);
  w.write_u8(static_cast<std::uint8_t>(m.code));
}

void encode(const UnmaskRequest& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kUnmaskRequest);
  w.write_i64(m.round);
  w.write_i64(m.wave);
  w.write_u32(static_cast<std::uint32_t>(m.dropped.size()));
  for (const std::string& site : m.dropped) w.write_string(site);
  m.skeleton.serialize(w);
}

void encode(const UnmaskResponse& m, core::ByteWriter& w) {
  write_tag(w, MsgType::kUnmaskResponse);
  w.write_string(m.session_id);
  w.write_i64(m.round);
  w.write_i64(m.wave);
  m.share.serialize(w);
}

std::size_t encoded_size(const RegisterRequest& m) {
  return kU8 + core::encoded_size(m.site_name) + core::encoded_size(m.token);
}

std::size_t encoded_size(const RegisterAck& m) {
  return kU8 + kU8 + core::encoded_size(m.session_id) +
         core::encoded_size(m.message);
}

std::size_t encoded_size(const GetTaskRequest& m) {
  return kU8 + core::encoded_size(m.session_id) + kI64;
}

std::size_t encoded_size(const TaskMessage& m) {
  return kU8 + kU8 + kI64 + kI64 + m.payload.encoded_size();
}

std::size_t encoded_size(const SubmitUpdateRequest& m) {
  return kU8 + core::encoded_size(m.session_id) + kI64 + m.payload.encoded_size();
}

std::size_t encoded_size(const SubmitAck& m) {
  return kU8 + kU8 + core::encoded_size(m.message) + kU8;
}

std::size_t encoded_size(const ErrorMessage& m) {
  return kU8 + core::encoded_size(m.message) + kU8;
}

std::size_t encoded_size(const UnmaskRequest& m) {
  std::size_t n = kU8 + kI64 + kI64 + kU32;
  for (const std::string& site : m.dropped) n += core::encoded_size(site);
  return n + m.skeleton.encoded_size();
}

std::size_t encoded_size(const UnmaskResponse& m) {
  return kU8 + core::encoded_size(m.session_id) + kI64 + kI64 +
         m.share.encoded_size();
}

MsgType peek_type(std::span<const std::uint8_t> frame) {
  if (frame.empty()) throw ProtocolError("empty frame");
  const std::uint8_t tag = frame[0];
  if (tag < static_cast<std::uint8_t>(MsgType::kRegister) ||
      tag > static_cast<std::uint8_t>(MsgType::kUnmaskResponse)) {
    throw ProtocolError("unknown message tag " + std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

RegisterRequest decode_register(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kRegister);
  RegisterRequest m;
  m.site_name = r.read_string();
  m.token = r.read_string();
  return m;
}

RegisterAck decode_register_ack(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kRegisterAck);
  RegisterAck m;
  m.accepted = r.read_bool();
  m.session_id = r.read_string();
  m.message = r.read_string();
  return m;
}

GetTaskRequest decode_get_task(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kGetTask);
  GetTaskRequest m;
  m.session_id = r.read_string();
  m.wait_ms = r.read_i64();
  return m;
}

TaskMessage decode_task(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kTask);
  TaskMessage m;
  const std::uint8_t kind = r.read_u8();
  if (kind > static_cast<std::uint8_t>(TaskKind::kStop)) {
    throw ProtocolError("bad task kind");
  }
  m.task = static_cast<TaskKind>(kind);
  m.round = r.read_i64();
  m.total_rounds = r.read_i64();
  m.payload = Dxo::deserialize(r);
  return m;
}

SubmitUpdateRequest decode_submit(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kSubmitUpdate);
  SubmitUpdateRequest m;
  m.session_id = r.read_string();
  m.round = r.read_i64();
  m.payload = Dxo::deserialize(r);
  return m;
}

SubmitAck decode_submit_ack(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kSubmitAck);
  SubmitAck m;
  m.accepted = r.read_bool();
  m.message = r.read_string();
  const std::uint8_t reason = r.read_u8();
  if (reason > static_cast<std::uint8_t>(RejectReason::kRecoveryInProgress)) {
    throw ProtocolError("bad reject reason");
  }
  m.reason = static_cast<RejectReason>(reason);
  return m;
}

ErrorMessage decode_error(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kError);
  ErrorMessage m;
  m.message = r.read_string();
  const std::uint8_t code = r.read_u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kWrongJob)) {
    throw ProtocolError("bad error code");
  }
  m.code = static_cast<ErrorCode>(code);
  return m;
}

UnmaskRequest decode_unmask_request(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kUnmaskRequest);
  UnmaskRequest m;
  m.round = r.read_i64();
  m.wave = r.read_i64();
  const std::uint32_t count = r.read_u32();
  // Each name takes at least its 4-byte length: a hostile count must not
  // reserve more than the frame could possibly hold.
  m.dropped.reserve(std::min<std::size_t>(count, r.remaining() / 4));
  for (std::uint32_t i = 0; i < count; ++i) m.dropped.push_back(r.read_string());
  m.skeleton = Dxo::deserialize(r);
  return m;
}

UnmaskResponse decode_unmask_response(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kUnmaskResponse);
  UnmaskResponse m;
  m.session_id = r.read_string();
  m.round = r.read_i64();
  m.wave = r.read_i64();
  m.share = Dxo::deserialize(r);
  return m;
}

}  // namespace cppflare::flare
