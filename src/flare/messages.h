// Wire protocol between federated clients and the server.
//
// Clients drive the protocol (as in NVFlare): they register, then poll for
// tasks and submit results. Every message is a tagged body; the secure
// channel (secure_channel.h) encrypts the tagged bytes and authenticates them
// with the sender's identity before they reach a transport.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bytes.h"
#include "flare/dxo.h"
#include "flare/secure_channel.h"

namespace cppflare::flare {

enum class MsgType : std::uint8_t {
  kRegister = 1,
  kRegisterAck = 2,
  kGetTask = 3,
  kTask = 4,
  kSubmitUpdate = 5,
  kSubmitAck = 6,
  kError = 7,
  kUnmaskRequest = 8,
  kUnmaskResponse = 9,
};

/// What the server asks a polling client to do.
enum class TaskKind : std::uint8_t {
  kNone = 0,   // nothing right now; poll again
  kTrain = 1,  // run local training on the attached global model
  kStop = 2,   // the run is over; shut down
};

struct RegisterRequest {
  std::string site_name;
  std::string token;
};

struct RegisterAck {
  bool accepted = false;
  std::string session_id;
  std::string message;
};

struct GetTaskRequest {
  std::string session_id;
  /// Long-poll budget: the server may park this call for up to `wait_ms`
  /// before answering kNone (0 = answer immediately). Servers clamp it
  /// (kMaxGetTaskWaitMs).
  std::int64_t wait_ms = 0;
};

/// Server-side ceiling on GetTaskRequest::wait_ms — a client asking for an
/// hour parks for at most this long, then gets kNone and re-polls (which
/// also refreshes liveness).
inline constexpr std::int64_t kMaxGetTaskWaitMs = 30000;

struct TaskMessage {
  TaskKind task = TaskKind::kNone;
  std::int64_t round = 0;
  std::int64_t total_rounds = 0;
  Dxo payload;  // global model for kTrain; empty otherwise
};

struct SubmitUpdateRequest {
  std::string session_id;
  std::int64_t round = 0;
  Dxo payload;
};

/// Why the server refused a contribution — the typed verdict of the
/// update-validation pipeline (validator.h), carried on the SubmitAck so a
/// site learns *why* it was turned away and telemetry can attribute
/// rejections per round.
enum class RejectReason : std::uint8_t {
  kNone = 0,               // accepted (or a legacy untyped rejection)
  kSchemaMismatch = 1,     // keys/shapes incongruent with the global model
  kNonFinite = 2,          // NaN or Inf in the payload
  kNormOutlier = 3,        // update norm flagged by the robust z-score
  kStaleRound = 4,         // contribution for a round that already closed
  kBadSampleCount = 5,     // implausible num_samples claim
  kQuarantined = 6,        // site is quarantined; update scored, not used
  kDuplicate = 7,          // the round already holds this site's update
  kNotSampled = 8,         // site not in this round's participant sample
  kAggregatorRefused = 9,  // passed validation, aggregator still said no
  kRunOver = 10,           // run finished or aborted
  kRecoveryInProgress = 11,  // masked round is frozen in mask recovery
};

const char* reject_reason_name(RejectReason reason);

struct SubmitAck {
  bool accepted = false;
  std::string message;
  RejectReason reason = RejectReason::kNone;
};

/// How a client should react to a server-reported error (the retryable vs
/// fatal taxonomy — see DESIGN.md §9).
enum class ErrorCode : std::uint8_t {
  /// Application-level protocol violation (bad token, unexpected message):
  /// retrying cannot help, the client must abort.
  kFatal = 0,
  /// The frame was damaged or replayed in flight (tag mismatch, malformed
  /// envelope, sequence violation): re-seal and resend.
  kRetryable = 1,
  /// The server does not know the client's session (restart or eviction):
  /// re-register, then resend.
  kUnknownSession = 2,
  /// The frame's envelope is bound to a different job than the one it
  /// reached (multi-job coordinator, DESIGN.md §16). Fatal: the client is
  /// misconfigured or the frame was replayed across jobs; retrying the same
  /// frame can never succeed.
  kWrongJob = 3,
};

struct ErrorMessage {
  std::string message;
  ErrorCode code = ErrorCode::kFatal;
};

/// Mask-recovery request, delivered on the long-poll channel in place of a
/// TaskMessage when a masked round closed with sites missing. The survivor
/// must answer with the *sum* of its pairwise mask streams against the
/// dropped set for `round` — never an individual pairwise mask, so the
/// server learns nothing about any single link (see DESIGN.md §14).
struct UnmaskRequest {
  std::int64_t round = 0;
  /// Recovery wave: increments when a survivor is demoted mid-recovery and
  /// the remaining survivors must answer again against the enlarged set.
  std::int64_t wave = 0;
  std::vector<std::string> dropped;
  /// Zeros template of the expected share (the global model's skeleton —
  /// nothing the honest-but-curious server doesn't already publish). A
  /// survivor restarted after a coordinator crash lost the skeleton its
  /// mask filter recorded at upload time; this field lets it answer anyway
  /// (DESIGN.md §15).
  Dxo skeleton;
};

/// Survivor's answer: `share` holds the summed mask stream (same skeleton as
/// the round's update payload) the server subtracts from the aggregate.
struct UnmaskResponse {
  std::string session_id;
  std::int64_t round = 0;
  std::int64_t wave = 0;
  Dxo share;
};

/// SubmitAck message for a contribution the server already holds. A client
/// that retried a submit whose response was lost treats this as success
/// (at-least-once delivery with server-side dedup).
inline constexpr const char* kDuplicateContribution = "duplicate contribution";

// ---- encoding -----------------------------------------------------------
// `encode` appends a message's full tagged frame to a writer and
// `encoded_size` is that frame's exact byte count. `pack` puts the frame in
// one exactly reserved buffer; `seal_message` encodes it straight into the
// envelope buffer instead (the frame seal(..., pack(m), job) would build,
// without the separate frame buffer). `peek_type` reads the tag; decode_*
// read a borrowed view (a buffer or an opened envelope's payload), expect
// the matching tag and throw ProtocolError otherwise.

void encode(const RegisterRequest& m, core::ByteWriter& w);
void encode(const RegisterAck& m, core::ByteWriter& w);
void encode(const GetTaskRequest& m, core::ByteWriter& w);
void encode(const TaskMessage& m, core::ByteWriter& w);
void encode(const SubmitUpdateRequest& m, core::ByteWriter& w);
void encode(const SubmitAck& m, core::ByteWriter& w);
void encode(const ErrorMessage& m, core::ByteWriter& w);
void encode(const UnmaskRequest& m, core::ByteWriter& w);
void encode(const UnmaskResponse& m, core::ByteWriter& w);

std::size_t encoded_size(const RegisterRequest& m);
std::size_t encoded_size(const RegisterAck& m);
std::size_t encoded_size(const GetTaskRequest& m);
std::size_t encoded_size(const TaskMessage& m);
std::size_t encoded_size(const SubmitUpdateRequest& m);
std::size_t encoded_size(const SubmitAck& m);
std::size_t encoded_size(const ErrorMessage& m);
std::size_t encoded_size(const UnmaskRequest& m);
std::size_t encoded_size(const UnmaskResponse& m);

template <class Message>
std::vector<std::uint8_t> pack(const Message& m) {
  core::ByteWriter w;
  w.reserve(encoded_size(m));
  encode(m, w);
  return w.take();
}

template <class Message>
std::vector<std::uint8_t> seal_message(const std::string& sender, const ChannelKey& key,
                                       std::uint64_t sequence, const Message& m,
                                       const std::string& job_id = {}) {
  return seal_encoded(
      sender, key, sequence, encoded_size(m),
      [&m](core::ByteWriter& w) { encode(m, w); }, job_id);
}

MsgType peek_type(std::span<const std::uint8_t> frame);

RegisterRequest decode_register(std::span<const std::uint8_t> frame);
RegisterAck decode_register_ack(std::span<const std::uint8_t> frame);
GetTaskRequest decode_get_task(std::span<const std::uint8_t> frame);
TaskMessage decode_task(std::span<const std::uint8_t> frame);
SubmitUpdateRequest decode_submit(std::span<const std::uint8_t> frame);
SubmitAck decode_submit_ack(std::span<const std::uint8_t> frame);
ErrorMessage decode_error(std::span<const std::uint8_t> frame);
UnmaskRequest decode_unmask_request(std::span<const std::uint8_t> frame);
UnmaskResponse decode_unmask_response(std::span<const std::uint8_t> frame);

}  // namespace cppflare::flare
