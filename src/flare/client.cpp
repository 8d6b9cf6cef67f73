#include "flare/client.h"

#include <chrono>

#include "core/error.h"
#include "core/logging.h"
#include "core/trace.h"

#define CPPFLARE_LOG_COMPONENT "FederatedClient"

namespace cppflare::flare {

namespace {
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
      session_(std::move(credential), config_.job_id, config_.long_poll_ms,
               std::move(learner)),
      connection_(std::move(connection)) {
  if (!connection_) throw Error("FederatedClient: connection required");
}

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 ConnectionFactory factory,
                                 std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      session_(std::move(credential), config_.job_id, config_.long_poll_ms,
               std::move(learner)),
      factory_(std::move(factory)) {
  if (!factory_) throw Error("FederatedClient: connection factory required");
}

SiteSession::Outcome FederatedClient::exchange() {
  if (!connection_) {
    if (!factory_) {
      throw TransportError(site_name() + ": connection lost and no factory");
    }
    connection_ = factory_();
    if (!connection_) {
      throw TransportError(site_name() + ": connection factory returned null");
    }
  }
  return session_.on_reply(connection_->call(session_.next_frame()));
}

void FederatedClient::run() {
  // Idle handling is long-poll, not timed re-polling: each get_task carries
  // a wait budget and the server parks the call until a task exists (or the
  // budget runs out, which doubles as a liveness heartbeat). A kNone answer
  // therefore just re-polls immediately; `max_idle_ms` bounds the total
  // task-less stretch by wall clock.
  const std::uint64_t jitter_seed = config_.retry_seed ^ fnv1a(site_name());
  // Each exchange gets a fresh retry episode (see ClientConfig::retry).
  core::Backoff backoff(config_.retry, jitter_seed);
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    SiteSession::Outcome outcome;
    try {
      if (session_.step() == SiteSession::Step::kSubmit) {
        CF_TRACE_SPAN_SITE("client.submit", site_name(), session_.round());
        outcome = exchange();
      } else {
        outcome = exchange();
      }
    } catch (const TransportError& e) {
      transport_failures_ += 1;
      if (!backoff.try_again()) {
        LOG(warn)
            .msg("giving up:")
            .msg(e.what())
            .kv("site", site_name())
            .kv("retries", backoff.retries());
        throw;
      }
      LOG(warn)
          .msg("transport failure:")
          .msg(e.what())
          .kv("site", site_name())
          .kv("retry", backoff.retries())
          .kv("max_retries", config_.retry.max_retries);
      if (factory_ && connection_) {
        // A broken socket cannot be told apart from a lost frame; rebuild
        // the connection when we can and let the factory decide how.
        connection_.reset();
        reconnects_ += 1;
      }
      continue;
    }
    backoff = core::Backoff(config_.retry, jitter_seed);
    const auto now = std::chrono::steady_clock::now();
    switch (outcome) {
      case SiteSession::Outcome::kDone:
        return;
      case SiteSession::Outcome::kIdle:
        if (config_.max_idle_ms > 0 &&
            std::chrono::duration_cast<std::chrono::milliseconds>(now - last_progress)
                    .count() >= config_.max_idle_ms) {
          throw TransportError(site_name() + " idle for too long; aborting");
        }
        break;
      case SiteSession::Outcome::kAdvanced:
        last_progress = now;
        break;
    }
  }
}

}  // namespace cppflare::flare
