// The federated client runtime: the blocking loop around a SiteSession.
//
// The protocol itself (register, poll, train, filter, submit, mask recovery,
// error classification) lives in the SiteSession (flare/site_session.h).
// `run()` moves it over one transport connection, one exchange at a time,
// on the caller's thread: the loop for thread-per-site and TCP runs.
//
// Resilience (DESIGN.md §9): transport failures (socket errors, dropped or
// corrupted frames, retryable server errors) are retried with bounded
// exponential backoff, reconnecting through the `ConnectionFactory` when
// one is available; the session re-registers on kUnknownSession by itself.
// Application-level protocol errors stay fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/backoff.h"
#include "flare/learner.h"
#include "flare/provision.h"
#include "flare/site_session.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Builds a fresh connection to the server; called once lazily and again
/// after every transport failure. May throw TransportError (counted against
/// the same retry budget as a failed call).
using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

struct ClientConfig {
  /// Job binding, required: stamped on every outbound envelope (servers and
  /// the job router reject frames bound to another job, or to none, with
  /// ErrorCode::kWrongJob) and carried into the Learner's FLContext.
  /// Constructing a client with it empty throws ConfigError.
  std::string job_id;
  /// Long-poll budget sent with every get_task: the server parks the call
  /// until a task is ready or this much time passed (it also clamps the
  /// value, kMaxGetTaskWaitMs). Values below 1 are sent as 1.
  std::int64_t long_poll_ms = 10000;
  /// Give up if the server stays silent this long (0 = never).
  std::int64_t max_idle_ms = 60000;
  /// Retry schedule for transport-level failures (initial/max delay,
  /// multiplier, retries per failed exchange, jitter fraction, fast first
  /// retry). Each exchange gets a fresh episode, so the common transient —
  /// one lost or corrupted frame — is retried immediately; only repeated
  /// failures of the same exchange sleep the exponential schedule.
  core::BackoffPolicy retry = {10, 2000, 2.0, 5, 0.2, true};
  /// Seed for the retry jitter (combined with the site name), keeping
  /// fault-injection runs reproducible.
  std::uint64_t retry_seed = 0x9277;
};

class FederatedClient {
 public:
  /// Single fixed connection (no reconnect on failure; retries re-use it).
  FederatedClient(ClientConfig config, Credential credential,
                  std::unique_ptr<Connection> connection,
                  std::shared_ptr<Learner> learner);
  /// Reconnecting client: the factory is invoked lazily and again after
  /// every transport failure.
  FederatedClient(ClientConfig config, Credential credential,
                  ConnectionFactory factory, std::shared_ptr<Learner> learner);

  /// The protocol machine this client runs: outbound filters (privacy
  /// lives here) and the unmask provider are installed on it.
  SiteSession& session() { return session_; }

  /// Blocking: registers and participates until the server stops the run.
  /// Throws ProtocolError on fatal protocol violations and TransportError
  /// once the retry budget for a transport failure is exhausted.
  void run();

  std::int64_t rounds_participated() const { return session_.rounds_participated(); }
  std::int64_t updates_rejected() const { return session_.updates_rejected(); }
  /// Transport-level failures absorbed by the retry machinery (dropped or
  /// corrupted frames, reconnects) over the client's lifetime.
  std::int64_t transport_failures() const { return transport_failures_; }
  std::int64_t reconnects() const { return reconnects_; }
  std::int64_t reregistrations() const { return session_.reregistrations(); }
  std::int64_t unmask_answers() const { return session_.unmask_answers(); }
  const std::string& site_name() const { return session_.site_name(); }

 private:
  /// One exchange: seal the session's next frame, call, hand the reply back.
  SiteSession::Outcome exchange();

  ClientConfig config_;
  SiteSession session_;
  std::unique_ptr<Connection> connection_;
  ConnectionFactory factory_;
  std::int64_t transport_failures_ = 0;
  std::int64_t reconnects_ = 0;
};

}  // namespace cppflare::flare
