// The federated client runtime.
//
// Owns a transport connection, the site credential, and a `Learner`. The
// `run()` loop is the client half of Fig. 3: register (token handshake),
// poll for tasks, run local training, pass the result through the outbound
// filter chain, submit, repeat until the server says stop.
//
// Resilience (DESIGN.md §9): transport failures (socket errors, dropped or
// corrupted frames, retryable server errors) are retried with bounded
// exponential backoff, reconnecting through the `ConnectionFactory` when
// one is available; kUnknownSession errors trigger an idempotent
// re-registration that resumes the session. Application-level protocol
// errors stay fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/backoff.h"
#include "flare/filters.h"
#include "flare/learner.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Builds a fresh connection to the server; called once lazily and again
/// after every transport failure. May throw TransportError (counted against
/// the same retry budget as a failed call).
using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

struct ClientConfig {
  /// Job binding: stamped on every outbound envelope (the multi-job
  /// coordinator routes frames by it and rejects cross-job traffic with
  /// ErrorCode::kWrongJob) and carried into the Learner's FLContext. Empty
  /// means unbound — accepted when the peer hosts exactly one job.
  std::string job_id;
  /// Long-poll budget sent with every get_task: the server parks the call
  /// until a task is ready or this much time passed (it also clamps the
  /// value, kMaxGetTaskWaitMs). Must be >= 1; against a server whose
  /// transport cannot park (the synchronous dispatcher), kNone answers
  /// return immediately and the client inserts a tiny anti-spin sleep.
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

  /// Filters applied to every outbound contribution (privacy lives here).
  FilterChain& outbound_filters() { return outbound_filters_; }

  /// Answers the server's mask-recovery question (DESIGN.md §14): given the
  /// set of dropped sites and the round, return the sum of this site's
  /// pairwise masks against them so the server can subtract them from the
  /// masked aggregate. `skeleton` is the server-supplied zeros template of
  /// the expected share, for providers restarted after a crash with no
  /// upload-time state (DESIGN.md §15). Installed by the secure-aggregation
  /// wiring; a client without a provider answers UnmaskRequest with a fatal
  /// protocol error, which is correct for unmasked runs (the server never
  /// asks).
  using UnmaskProvider =
      std::function<Dxo(const std::vector<std::string>& dropped,
                        std::int64_t round, const nn::StateDict& skeleton)>;
  void set_unmask_provider(UnmaskProvider provider) {
    unmask_provider_ = std::move(provider);
  }

  /// Blocking: registers and participates until the server stops the run.
  /// Throws ProtocolError on fatal protocol violations and TransportError
  /// once the retry budget for a transport failure is exhausted.
  void run();

  std::int64_t rounds_participated() const { return rounds_participated_; }
  /// Contributions the server refused (validator rejection, quarantine,
  /// stale round) over the client's lifetime.
  std::int64_t updates_rejected() const { return updates_rejected_; }
  /// Transport-level failures absorbed by the retry machinery (dropped or
  /// corrupted frames, reconnects) over the client's lifetime.
  std::int64_t transport_failures() const { return transport_failures_; }
  std::int64_t reconnects() const { return reconnects_; }
  std::int64_t reregistrations() const { return reregistrations_; }
  /// UnmaskRequests answered during mask-recovery phases.
  std::int64_t unmask_answers() const { return unmask_answers_; }
  const std::string& site_name() const { return credential_.name; }

 private:
  /// Seals the request for each attempt under that attempt's sequence
  /// number (a re-registration mid-retry can change the session id baked
  /// into it).
  using FrameSealer = std::function<std::vector<std::uint8_t>(std::uint64_t)>;

  /// A verified response. The payload is a view into the sealed bytes the
  /// reply owns, so it lives exactly as long as the reply.
  struct Reply {
    std::vector<std::uint8_t> sealed;
    std::size_t payload_at = 0;
    std::size_t payload_size = 0;
    std::span<const std::uint8_t> payload() const {
      return std::span<const std::uint8_t>(sealed).subspan(payload_at, payload_size);
    }
  };

  /// Encodes `request` straight into the envelope of one attempt.
  template <class Request>
  std::vector<std::uint8_t> seal_request(const Request& request,
                                         std::uint64_t sequence) const {
    return seal_message(credential_.name, credential_.secret, sequence, request,
                        config_.job_id);
  }

  /// Resilient exchange: retries transport failures with backoff,
  /// re-registers on kUnknownSession, throws on fatal errors.
  Reply call(const FrameSealer& seal_frame);

  /// One authenticated round trip: call, open, verify, classify errors into
  /// retryable (TransportError) vs fatal (ProtocolError).
  Reply call_once(const std::vector<std::uint8_t>& sealed);

  void ensure_connection();
  void register_session();

  ClientConfig config_;
  Credential credential_;
  std::unique_ptr<Connection> connection_;
  ConnectionFactory factory_;
  std::shared_ptr<Learner> learner_;
  FilterChain outbound_filters_;
  UnmaskProvider unmask_provider_;
  SequenceSource seq_;
  SequenceTracker server_seq_;
  std::string session_id_;
  std::int64_t rounds_participated_ = 0;
  std::int64_t updates_rejected_ = 0;
  std::int64_t transport_failures_ = 0;
  std::int64_t reconnects_ = 0;
  std::int64_t reregistrations_ = 0;
  std::int64_t unmask_answers_ = 0;
  bool registering_ = false;
};

}  // namespace cppflare::flare
