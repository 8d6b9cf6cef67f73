#include "flare/client.h"

#include <chrono>

#include "core/error.h"
#include "core/logging.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"

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

/// Shared by the clients of one run_all and their in-flight completions. A
/// completion can arrive after the run stopped waiting (a parked reply
/// released when the server shuts down); once `close()` has run it is
/// dropped instead of posted to a pool that may be gone.
class ClientGroup {
 public:
  ClientGroup(core::ThreadPool& pool, std::size_t clients)
      : pool_(&pool), remaining_(clients), errors_(clients) {}

  /// Queues a continuation on the pool; dropped after close().
  void post(std::function<void()> fn) {
    core::MutexLock lock(mu_);
    if (pool_) pool_->post(std::move(fn));
  }
  void ended(std::size_t index, std::exception_ptr error) {
    core::MutexLock lock(mu_);
    errors_[index] = std::move(error);
    remaining_ -= 1;
    cv_.notify_all();
  }
  /// True once every client ended; waits up to `ms` (for ever when < 0).
  bool wait_ms(std::int64_t ms) {
    core::MutexLock lock(mu_);
    const auto all_ended = [this]() CF_REQUIRES(mu_) { return remaining_ == 0; };
    if (ms >= 0) return cv_.wait_for_ms(mu_, ms, all_ended);
    cv_.wait(mu_, all_ended);
    return true;
  }
  /// Shuts the gate; returns each client's failure.
  std::vector<std::exception_ptr> close() {
    core::MutexLock lock(mu_);
    pool_ = nullptr;
    return errors_;
  }

 private:
  core::Mutex mu_;
  core::CondVar cv_;
  core::ThreadPool* pool_ CF_GUARDED_BY(mu_);
  std::size_t remaining_ CF_GUARDED_BY(mu_);
  std::vector<std::exception_ptr> errors_ CF_GUARDED_BY(mu_);
};

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 std::unique_ptr<Connection> connection,
                                 std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      session_(std::move(credential), config_.job_id, config_.long_poll_ms,
               std::move(learner)),
      connection_(std::move(connection)),
      backoff_(config_.retry, config_.retry_seed ^ fnv1a(site_name())) {
  if (!connection_) throw Error("FederatedClient: connection required");
}

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 ConnectionFactory factory,
                                 std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      session_(std::move(credential), config_.job_id, config_.long_poll_ms,
               std::move(learner)),
      factory_(std::move(factory)),
      backoff_(config_.retry, config_.retry_seed ^ fnv1a(site_name())) {
  if (!factory_) throw Error("FederatedClient: connection factory required");
}

void FederatedClient::run() {
  if (std::exception_ptr error = run_all({this}, 1).front()) {
    std::rethrow_exception(error);
  }
}

std::vector<std::exception_ptr> FederatedClient::run_all(
    const std::vector<FederatedClient*>& clients, std::size_t workers,
    std::int64_t timeout_ms, const std::function<void()>& on_timeout) {
  core::ThreadPool pool(workers);
  auto group = std::make_shared<ClientGroup>(pool, clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    FederatedClient& client = *clients[i];
    client.group_ = group;
    client.index_ = i;
    client.last_progress_ = std::chrono::steady_clock::now();
    group->post([&client] { client.send_next(); });
  }
  if (!group->wait_ms(timeout_ms)) {
    if (on_timeout) on_timeout();
    if (!group->wait_ms(60000)) {
      LOG(error).msg("clients did not end; abandoning them");
    }
  }
  return group->close();  // before `pool` joins: late replies are dropped
}

void FederatedClient::send_next() {
  std::vector<std::uint8_t> frame;
  try {
    if (!connection_) {
      connection_ = factory_();
      if (!connection_) {
        throw TransportError(site_name() + ": connection factory returned null");
      }
    }
    frame = session_.next_frame();
  } catch (const TransportError& e) {
    return retry(e);
  } catch (...) {
    return finish(std::current_exception());
  }
  // The completion only queues the reply; the work runs on a worker. It may
  // run before send() returns, so nothing after the send touches `this`.
  const std::shared_ptr<Connection> connection = connection_;
  connection->send(frame, [this, group = group_](std::vector<std::uint8_t> reply,
                                                 std::exception_ptr error) {
    group->post([this, reply = std::move(reply), error = std::move(error)]() mutable {
      on_reply(std::move(reply), error);
    });
  });
}

void FederatedClient::on_reply(std::vector<std::uint8_t> reply,
                               std::exception_ptr error) {
  // Idle handling is long-poll, not timed re-polling: each get_task carries
  // a wait budget and the server parks the call until a task exists (or the
  // budget runs out, which doubles as a liveness heartbeat). A kNone answer
  // therefore just re-polls immediately; `max_idle_ms` bounds the total
  // task-less stretch by wall clock.
  SiteSession::Outcome outcome;
  try {
    if (error) std::rethrow_exception(error);
    outcome = session_.on_reply(std::move(reply));
  } catch (const TransportError& e) {
    return retry(e);
  } catch (...) {
    return finish(std::current_exception());
  }
  backoff_.reset();
  const auto now = std::chrono::steady_clock::now();
  switch (outcome) {
    case SiteSession::Outcome::kDone:
      return finish(nullptr);
    case SiteSession::Outcome::kIdle:
      if (config_.max_idle_ms > 0 &&
          now - last_progress_ >= std::chrono::milliseconds(config_.max_idle_ms)) {
        return finish(transport_failure(site_name() + " idle for too long; aborting"));
      }
      break;
    case SiteSession::Outcome::kAdvanced:
      last_progress_ = now;
      break;
  }
  send_next();
}

void FederatedClient::retry(const TransportError& e) {
  transport_failures_ += 1;
  if (!backoff_.try_again()) {
    LOG(warn)
        .msg("giving up:")
        .msg(e.what())
        .kv("site", site_name())
        .kv("retries", backoff_.retries());
    return finish(std::current_exception());
  }
  LOG(warn)
      .msg("transport failure:")
      .msg(e.what())
      .kv("site", site_name())
      .kv("retry", backoff_.retries())
      .kv("max_retries", config_.retry.max_retries);
  if (factory_) {
    // A broken socket cannot be told apart from a lost frame; rebuild
    // the connection when we can and let the factory decide how.
    if (connection_) reconnects_ += 1;
    connection_.reset();
  }
  // Posted, not called: a dead factory must not grow the stack.
  group_->post([this] { send_next(); });
}

void FederatedClient::finish(std::exception_ptr error) {
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      LOG(error).msg("site failed:").msg(e.what()).kv("site", site_name());
    } catch (...) {
      LOG(error).msg("site failed").kv("site", site_name());
    }
  }
  group_->ended(index_, std::move(error));
}

}  // namespace cppflare::flare
