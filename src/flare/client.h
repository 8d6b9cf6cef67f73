// The federated client runtime: the one driver of a SiteSession.
//
// The protocol itself (register, poll, train, filter, submit, mask recovery,
// error classification) lives in the SiteSession (flare/site_session.h).
// FederatedClient moves it over one transport connection, one exchange at a
// time, as continuations on a worker pool: each `Connection::send` completion
// posts the next step, so a site waiting on a parked long-poll holds no
// thread. `run()` drives one client on a one-worker pool; `run_all` drives
// the simulator's sites on one shared pool. Simulated and deployed sites
// share this loop and its retry, reconnect, idle and failure policy.
//
// Resilience (DESIGN.md §9): transport failures (socket errors, dropped or
// corrupted frames, retryable server errors) are retried with bounded
// exponential backoff, reconnecting through the `ConnectionFactory` when
// one is available; the session re-registers on kUnknownSession by itself.
// Application-level protocol errors stay fatal.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

/// The worker pool and teardown gate of one FederatedClient::run_all
/// (client.cpp).
class ClientGroup;

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
  // Continuations hold the client's address.
  FederatedClient(const FederatedClient&) = delete;
  FederatedClient& operator=(const FederatedClient&) = delete;

  /// The protocol machine this client runs: outbound filters (privacy
  /// lives here) and the unmask provider are installed on it.
  SiteSession& session() { return session_; }

  /// Blocking: runs this client alone on a one-worker pool (run_all) and
  /// rethrows its failure with its type — ProtocolError on fatal protocol
  /// violations, TransportError once the retry budget for a transport
  /// failure is exhausted, or whatever the learner threw.
  void run();

  /// Runs `clients` as continuations on one pool of `workers` threads until
  /// every one has ended, and returns each one's failure (nullptr when the
  /// server stopped it) in input order. A waiting client holds no worker
  /// unless its connection's send blocks (TCP). `timeout_ms` < 0 waits for
  /// ever; otherwise, once it expires, `on_timeout` runs — it should make
  /// the stragglers end, as a server abort does by answering every parked
  /// poll with kStop — and the wait gets 60 s more before the rest are
  /// abandoned. The clients must outlive the call.
  static std::vector<std::exception_ptr> run_all(
      const std::vector<FederatedClient*>& clients, std::size_t workers,
      std::int64_t timeout_ms = -1, const std::function<void()>& on_timeout = {});

  std::int64_t rounds_participated() const { return session_.rounds_participated(); }
  /// Transport-level failures absorbed by the retry machinery (dropped or
  /// corrupted frames, reconnects) over the client's lifetime.
  std::int64_t transport_failures() const { return transport_failures_; }
  std::int64_t reconnects() const { return reconnects_; }
  const std::string& site_name() const { return session_.site_name(); }

 private:
  /// Seals the session's next frame and sends it, connecting first when
  /// needed; the completion posts `on_reply`.
  void send_next();
  void on_reply(std::vector<std::uint8_t> reply, std::exception_ptr error);
  /// Counts a transport failure, then backs off and resends (reconnecting
  /// when a factory exists), or ends the client once retries are spent.
  /// Called from the handler that caught `e`.
  void retry(const TransportError& e);
  void finish(std::exception_ptr error);

  ClientConfig config_;
  SiteSession session_;
  /// Shared with the send in flight, so a continuation that resets it cannot
  /// pull the connection out from under a `send` that is still returning.
  std::shared_ptr<Connection> connection_;
  ConnectionFactory factory_;
  /// Rearmed after every answered exchange (see ClientConfig::retry); the
  /// jitter stream is seeded from the config's seed and the site name.
  core::Backoff backoff_;
  std::chrono::steady_clock::time_point last_progress_;
  /// The run_all this client is in, and its place there.
  std::shared_ptr<ClientGroup> group_;
  std::size_t index_ = 0;
  std::int64_t transport_failures_ = 0;
  std::int64_t reconnects_ = 0;
};

}  // namespace cppflare::flare
