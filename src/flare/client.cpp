#include "flare/client.h"

#include <algorithm>
#include <chrono>

#include "core/error.h"
#include "core/logging.h"
#include "core/trace.h"

#define CPPFLARE_LOG_COMPONENT "FederatedClient"

namespace cppflare::flare {

namespace {
/// Raised by call_once when the server no longer knows our session; the
/// retry loop converts it into an idempotent re-registration.
struct UnknownSessionSignal {
  std::string message;
};

/// Stable string hash (FNV-1a) so retry jitter is reproducible per site
/// across processes, unlike std::hash.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 std::unique_ptr<Connection> connection,
                                 std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      credential_(std::move(credential)),
      connection_(std::move(connection)),
      learner_(std::move(learner)) {
  if (!connection_) throw Error("FederatedClient: connection required");
  if (!learner_) throw Error("FederatedClient: learner required");
}

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 ConnectionFactory factory,
                                 std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      credential_(std::move(credential)),
      factory_(std::move(factory)),
      learner_(std::move(learner)) {
  if (!factory_) throw Error("FederatedClient: connection factory required");
  if (!learner_) throw Error("FederatedClient: learner required");
}

void FederatedClient::ensure_connection() {
  if (connection_) return;
  if (!factory_) {
    throw TransportError(credential_.name + ": connection lost and no factory");
  }
  connection_ = factory_();
  if (!connection_) {
    throw TransportError(credential_.name + ": connection factory returned null");
  }
}

FederatedClient::Reply FederatedClient::call_once(
    const std::vector<std::uint8_t>& sealed) {
  ensure_connection();
  Reply reply;
  reply.sealed = connection_->call(sealed);
  Envelope env;
  try {
    env = open(reply.sealed, credential_.secret);
  } catch (const Error& e) {
    // The response failed verification: corrupted in flight, or the server
    // could not even identify us (its error was sealed under an empty
    // key). Either way the request may not have taken effect — retry.
    throw TransportError(credential_.name +
                         ": response unverifiable: " + e.what());
  }
  if (env.sender != "server") {
    throw ProtocolError("response not from server but '" + env.sender + "'");
  }
  if (!config_.job_id.empty() && !env.job_id.empty() &&
      env.job_id != config_.job_id) {
    throw ProtocolError(credential_.name + ": response bound to job '" +
                        env.job_id + "', expected '" + config_.job_id + "'");
  }
  server_seq_.check_and_advance(env.sender, env.sequence);
  if (peek_type(env.payload) == MsgType::kError) {
    const ErrorMessage err = decode_error(env.payload);
    switch (err.code) {
      case ErrorCode::kRetryable:
        throw TransportError("server (retryable): " + err.message);
      case ErrorCode::kUnknownSession:
        throw UnknownSessionSignal{err.message};
      case ErrorCode::kWrongJob:
        throw ProtocolError(credential_.name + " (cross-job traffic): " +
                            err.message);
      case ErrorCode::kFatal:
        break;
    }
    throw ProtocolError("server error: " + err.message);
  }
  reply.payload_at = static_cast<std::size_t>(env.payload.data() - reply.sealed.data());
  reply.payload_size = env.payload.size();
  return reply;
}

FederatedClient::Reply FederatedClient::call(const FrameSealer& seal_frame) {
  core::Backoff backoff(config_.retry,
                        config_.retry_seed ^ fnv1a(credential_.name));
  std::int64_t session_recoveries = 0;
  for (;;) {
    try {
      // Every attempt is re-sealed with a fresh sequence number, so a
      // resend never trips the server's replay protection. The envelope is
      // bound to our job so the multi-job router can dispatch it (and a
      // cross-job replay fails the MAC on the other job's channel).
      return call_once(seal_frame(seq_.next()));
    } catch (const TransportError& e) {
      transport_failures_ += 1;
      if (!backoff.try_again()) {
        LOG(warn)
            .msg("giving up:")
            .msg(e.what())
            .kv("site", credential_.name)
            .kv("retries", backoff.retries());
        throw;
      }
      LOG(warn)
          .msg("transport failure:")
          .msg(e.what())
          .kv("site", credential_.name)
          .kv("retry", backoff.retries())
          .kv("max_retries", config_.retry.max_retries);
      if (factory_ && connection_) {
        // A broken socket cannot be told apart from a lost frame; rebuild
        // the connection when we can and let the factory decide how.
        connection_.reset();
        reconnects_ += 1;
      }
    } catch (const UnknownSessionSignal& e) {
      if (registering_ || ++session_recoveries > 3) {
        throw ProtocolError(credential_.name +
                            ": session repeatedly rejected: " + e.message);
      }
      LOG(warn)
          .msg("session unknown to server; re-registering")
          .kv("site", credential_.name)
          .kv("detail", e.message);
      reregistrations_ += 1;
      register_session();
    }
  }
}

void FederatedClient::register_session() {
  registering_ = true;
  try {
    const RegisterAck ack = decode_register_ack(
        call([this](std::uint64_t seq) {
          return seal_request(RegisterRequest{credential_.name, credential_.token}, seq);
        }).payload());
    registering_ = false;
    if (!ack.accepted) {
      throw ProtocolError("registration rejected for " + credential_.name +
                          ": " + ack.message);
    }
    session_id_ = ack.session_id;
  } catch (...) {
    registering_ = false;
    throw;
  }
  LOG(info).msg("Successfully registered client:" + credential_.name +
                " for project " + config_.job_id + ". Token:" + credential_.token);
}

void FederatedClient::run() {
  // ---- register ----------------------------------------------------------
  register_session();

  // ---- task loop ----------------------------------------------------------
  // Idle handling is long-poll, not timed re-polling: each get_task carries
  // a wait budget and the server parks the call until a task exists (or the
  // budget runs out, which doubles as a liveness heartbeat). A kNone answer
  // therefore just re-polls immediately; `max_idle_ms` bounds the total
  // task-less stretch by wall clock.
  const std::int64_t wait_ms = std::max<std::int64_t>(1, config_.long_poll_ms);
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    const auto poll_started = std::chrono::steady_clock::now();
    const Reply reply = call([this, wait_ms](std::uint64_t seq) {
      return seal_request(GetTaskRequest{session_id_, wait_ms}, seq);
    });
    if (peek_type(reply.payload()) == MsgType::kUnmaskRequest) {
      // Mask-recovery phase (DESIGN.md §14): the server lost sites after
      // masked submissions landed and asks us to reveal the sum of our
      // pairwise masks against the dropped set. call() already retries
      // transport failures under backoff, so recovery traffic survives the
      // same fault injection as ordinary exchanges.
      const UnmaskRequest req = decode_unmask_request(reply.payload());
      if (!unmask_provider_) {
        throw ProtocolError(credential_.name +
                            ": server asked for mask shares but no unmask "
                            "provider is installed");
      }
      UnmaskResponse response{"", req.round, req.wave, {}};
      {
        CF_TRACE_SPAN_SITE("client.unmask", credential_.name, req.round);
        response.share = unmask_provider_(req.dropped, req.round, req.skeleton.data());
      }
      const SubmitAck ack =
          decode_submit_ack(call([this, &response](std::uint64_t seq) {
            response.session_id = session_id_;
            return seal_request(response, seq);
          }).payload());
      if (ack.accepted) {
        unmask_answers_ += 1;
      } else {
        // Stale wave / already-finished recovery: harmless, the server moved
        // on without us. Log and resume polling.
        LOG(warn)
            .msg("unmask share not accepted:")
            .msg(ack.message)
            .kv("site", credential_.name)
            .kv("round", req.round)
            .kv("wave", req.wave);
      }
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    const TaskMessage task = decode_task(reply.payload());
    if (task.task == TaskKind::kStop) {
      LOG(info).msg("received stop; shutting down").kv("site", credential_.name);
      return;
    }
    if (task.task == TaskKind::kNone) {
      const auto now = std::chrono::steady_clock::now();
      const auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               now - last_progress)
                               .count();
      if (config_.max_idle_ms > 0 && idle_ms >= config_.max_idle_ms) {
        throw TransportError(credential_.name + " idle for too long; aborting");
      }
      // A server that cannot park (synchronous dispatch path) answers kNone
      // instantly; without this guard the loop would busy-spin on its lock.
      const auto answered_in = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   now - poll_started)
                                   .count();
      if (answered_in < 2) core::Backoff::sleep_ms(2);
      continue;
    }
    last_progress = std::chrono::steady_clock::now();

    FLContext ctx;
    ctx.job_id = config_.job_id;
    ctx.site_name = credential_.name;
    ctx.current_round = task.round;
    ctx.total_rounds = task.total_rounds;

    SubmitUpdateRequest submit{"", task.round, {}};
    Dxo& update = submit.payload;
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

    SubmitAck submit_ack;
    {
      CF_TRACE_SPAN_SITE("client.submit", credential_.name, task.round);
      submit_ack = decode_submit_ack(call([this, &submit](std::uint64_t seq) {
                                       submit.session_id = session_id_;
                                       return seal_request(submit, seq);
                                     }).payload());
    }
    if (submit_ack.accepted || submit_ack.message == kDuplicateContribution) {
      // A duplicate ack means an earlier attempt landed but its response
      // was lost — the contribution is in, count the round.
      rounds_participated_ += 1;
    } else {
      updates_rejected_ += 1;
      LOG(warn)
          .msg("contribution rejected:")
          .msg(submit_ack.message)
          .kv("site", credential_.name)
          .kv("reason", reject_reason_name(submit_ack.reason));
    }
  }
}

}  // namespace cppflare::flare
