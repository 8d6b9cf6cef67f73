#include "flare/site_session.h"

#include <algorithm>

#include "core/error.h"
#include "core/logging.h"
#include "core/trace.h"

#define CPPFLARE_LOG_COMPONENT "FederatedClient"

namespace cppflare::flare {

namespace {
/// Re-registrations one interrupted step may trigger before the session is
/// declared lost.
constexpr std::int64_t kMaxSessionRecoveries = 3;
}  // namespace

SiteSession::SiteSession(Credential credential, std::string job_id,
                         std::int64_t long_poll_ms,
                         std::shared_ptr<Learner> learner)
    : credential_(std::move(credential)),
      key_(credential_.secret),
      job_id_(std::move(job_id)),
      long_poll_ms_(std::max<std::int64_t>(1, long_poll_ms)),
      learner_(std::move(learner)) {
  if (!learner_) throw Error("SiteSession: learner required");
  if (job_id_.empty()) {
    throw ConfigError("SiteSession: job_id is required (the server routes "
                      "and verifies frames by their job binding)");
  }
}

std::vector<std::uint8_t> SiteSession::next_frame() {
  // Every attempt is sealed under a fresh sequence number, so a resend never
  // trips the server's replay protection, and bound to our job so the job
  // router can dispatch it (a cross-job replay fails the other job's check).
  const std::uint64_t seq = seq_.next();
  const auto& name = credential_.name;
  switch (step_) {
    case Step::kRegister:
      return seal_message(name, key_, seq,
                          RegisterRequest{name, credential_.token}, job_id_);
    case Step::kPoll:
      return seal_message(name, key_, seq,
                          GetTaskRequest{session_id_, long_poll_ms_}, job_id_);
    case Step::kSubmit:
      // A re-registration may have changed the session id since training.
      submit_.session_id = session_id_;
      return seal_message(name, key_, seq, submit_, job_id_);
    case Step::kUnmask:
      unmask_.session_id = session_id_;
      return seal_message(name, key_, seq, unmask_, job_id_);
    case Step::kDone:
      break;
  }
  throw Error(name + ": session finished; no frame to send");
}

SiteSession::Outcome SiteSession::on_reply(std::vector<std::uint8_t> sealed) {
  Envelope env;
  try {
    env = open(std::move(sealed), key_);
  } catch (const Error& e) {
    // Corrupted in flight, or the server could not identify us (its error
    // was sealed under an empty key). The request may not have taken
    // effect either way: resend.
    throw TransportError(credential_.name + ": response unverifiable: " + e.what());
  }
  if (env.sender != "server") {
    throw ProtocolError("response not from server but '" + env.sender + "'");
  }
  if (!env.job_id.empty() && env.job_id != job_id_) {
    throw ProtocolError(credential_.name + ": response bound to job '" +
                        env.job_id + "', expected '" + job_id_ + "'");
  }
  server_seq_.check_and_advance(env.sender, env.sequence);
  if (peek_type(env.payload) == MsgType::kError) {
    on_error(decode_error(env.payload));
    return Outcome::kAdvanced;
  }
  if (step_ != Step::kRegister) session_recoveries_ = 0;
  switch (step_) {
    case Step::kRegister: {
      const RegisterAck ack = decode_register_ack(env.payload);
      if (!ack.accepted) {
        throw ProtocolError("registration rejected for " + credential_.name +
                            ": " + ack.message);
      }
      session_id_ = ack.session_id;
      step_ = resume_;
      resume_ = Step::kPoll;
      LOG(info).msg("Successfully registered client:" + credential_.name +
                    " for project " + job_id_ + ". Token:" + credential_.token);
      return Outcome::kAdvanced;
    }
    case Step::kPoll:
      return on_poll(env.payload);
    case Step::kSubmit: {
      const SubmitAck ack = decode_submit_ack(env.payload);
      if (ack.accepted || ack.message == kDuplicateContribution) {
        // A duplicate ack means an earlier attempt landed but its response
        // was lost: the contribution is in, count the round.
        rounds_participated_ += 1;
      } else {
        updates_rejected_ += 1;
        LOG(warn)
            .msg("contribution rejected:")
            .msg(ack.message)
            .kv("site", credential_.name)
            .kv("reason", reject_reason_name(ack.reason));
      }
      submit_.payload = Dxo();  // acknowledged: no resend needs it
      step_ = Step::kPoll;
      return Outcome::kAdvanced;
    }
    case Step::kUnmask: {
      const SubmitAck ack = decode_submit_ack(env.payload);
      if (ack.accepted) {
        unmask_answers_ += 1;
      } else {
        // Stale wave or recovery already resolved: harmless, the server
        // moved on without us.
        LOG(warn)
            .msg("unmask share not accepted:")
            .msg(ack.message)
            .kv("site", credential_.name)
            .kv("round", unmask_.round)
            .kv("wave", unmask_.wave);
      }
      unmask_.share = Dxo();
      step_ = Step::kPoll;
      return Outcome::kAdvanced;
    }
    case Step::kDone:
      break;
  }
  throw ProtocolError(credential_.name + ": reply after the run stopped");
}

void SiteSession::on_error(const ErrorMessage& err) {
  switch (err.code) {
    case ErrorCode::kRetryable:
      throw TransportError("server (retryable): " + err.message);
    case ErrorCode::kUnknownSession:
      if (step_ == Step::kRegister ||
          ++session_recoveries_ > kMaxSessionRecoveries) {
        throw ProtocolError(credential_.name +
                            ": session repeatedly rejected: " + err.message);
      }
      LOG(warn)
          .msg("session unknown to server; re-registering")
          .kv("site", credential_.name)
          .kv("detail", err.message);
      reregistrations_ += 1;
      resume_ = step_;
      step_ = Step::kRegister;
      return;
    case ErrorCode::kWrongJob:
      throw ProtocolError(credential_.name + " (cross-job traffic): " + err.message);
    case ErrorCode::kFatal:
      break;
  }
  throw ProtocolError("server error: " + err.message);
}

SiteSession::Outcome SiteSession::on_poll(std::span<const std::uint8_t> payload) {
  if (peek_type(payload) == MsgType::kUnmaskRequest) {
    // Mask-recovery phase (DESIGN.md §14): the server lost sites after
    // masked submissions landed and asks for the sum of our pairwise masks
    // against the dropped set.
    const UnmaskRequest req = decode_unmask_request(payload);
    if (!unmask_provider_) {
      throw ProtocolError(credential_.name +
                          ": server asked for mask shares but no unmask "
                          "provider is installed");
    }
    {
      CF_TRACE_SPAN_SITE("client.unmask", credential_.name, req.round);
      unmask_.share = unmask_provider_(req.dropped, req.round, req.skeleton.data());
    }
    unmask_.round = req.round;
    unmask_.wave = req.wave;
    step_ = Step::kUnmask;
    return Outcome::kAdvanced;
  }
  const TaskMessage task = decode_task(payload);
  switch (task.task) {
    case TaskKind::kStop:
      LOG(info).msg("received stop; shutting down").kv("site", credential_.name);
      step_ = Step::kDone;
      return Outcome::kDone;
    case TaskKind::kNone:
      // The long-poll budget expired (or this round sampled us out).
      return Outcome::kIdle;
    case TaskKind::kTrain:
      train(task);
      step_ = Step::kSubmit;
      return Outcome::kAdvanced;
  }
  throw ProtocolError("bad task kind");
}

void SiteSession::train(const TaskMessage& task) {
  FLContext ctx;
  ctx.job_id = job_id_;
  ctx.site_name = credential_.name;
  ctx.current_round = task.round;
  ctx.total_rounds = task.total_rounds;
  Dxo& update = submit_.payload;
  {
    CF_TRACE_SPAN_SITE("client.train", credential_.name, task.round);
    update = learner_->train(task.payload, ctx);
  }
  // Stamp the round before the filter chain runs: the server's freshness
  // check needs the honest stamp, and a poisoning filter replaying an old
  // update must carry the *old* stamp through (that is the attack).
  if (!update.has_meta(Dxo::kMetaRound)) {
    update.set_meta_int(Dxo::kMetaRound, task.round);
  }
  outbound_filters_.process(update, ctx);
  submit_.round = task.round;
}

}  // namespace cppflare::flare
