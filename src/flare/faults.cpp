#include "flare/faults.h"

#include "core/backoff.h"
#include "core/error.h"
#include "core/logging.h"

#define CPPFLARE_LOG_COMPONENT "FaultInjector"

namespace cppflare::flare {

FaultyConnection::FaultyConnection(std::unique_ptr<Connection> inner,
                                   FaultPlan plan,
                                   std::shared_ptr<FaultStats> stats)
    : inner_(std::move(inner)),
      plan_(plan),
      stats_(stats ? std::move(stats) : std::make_shared<FaultStats>()),
      rng_(plan.seed) {
  if (!inner_) throw Error("FaultyConnection: inner connection required");
}

bool FaultyConnection::faults_left() const {
  return plan_.max_faults < 0 || injected_ < plan_.max_faults;
}

void FaultyConnection::send(const std::vector<std::uint8_t>& request, Done done) {
  if (!inner_) return done({}, transport_failure("fault: connection is down"));
  const std::int64_t index = call_index_++;
  stats_->calls += 1;

  // Draw every fault gate each call, whether or not it can fire — the rng
  // stream position is then a function of the call index alone, so enabling
  // one fault kind never shifts another kind's schedule.
  const bool want_disconnect = rng_.bernoulli(plan_.disconnect_prob);
  const bool want_drop = rng_.bernoulli(plan_.drop_prob);
  const bool want_delay = rng_.bernoulli(plan_.delay_prob);
  const bool want_duplicate = rng_.bernoulli(plan_.duplicate_prob);
  const bool want_corrupt = rng_.bernoulli(plan_.corrupt_prob);

  if ((want_disconnect || index == plan_.disconnect_on_call) && faults_left()) {
    injected_ += 1;
    stats_->disconnects += 1;
    inner_.reset();
    LOG(warn).msg("injected disconnect at call " + std::to_string(index));
    return done({}, transport_failure("fault: connection lost"));
  }

  bool drop_response = false;
  if (want_drop && faults_left()) {
    injected_ += 1;
    if (drop_parity_++ % 2 == 0) {
      stats_->dropped_requests += 1;
      return done({}, transport_failure("fault: request dropped"));
    }
    stats_->dropped_responses += 1;
    drop_response = true;
  }

  if (want_delay && faults_left()) {
    injected_ += 1;
    stats_->delays += 1;
    core::Backoff::sleep_ms(plan_.delay_ms);
  }

  std::vector<std::uint8_t> delivered = request;
  if (want_corrupt && faults_left() && !delivered.empty()) {
    injected_ += 1;
    stats_->corruptions += 1;
    const std::size_t byte = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(delivered.size()) - 1));
    const int bit = static_cast<int>(rng_.uniform_int(0, 7));
    delivered[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }

  const bool duplicate = want_duplicate && faults_left();
  if (duplicate) {
    injected_ += 1;
    stats_->duplicates += 1;
  }
  // The caller hears back once every copy of the frame was answered.
  const auto deliver = [drop_response](const Done& to, std::vector<std::uint8_t> reply,
                                       std::exception_ptr error) {
    if (!error && drop_response) error = transport_failure("fault: response dropped");
    to(error ? std::vector<std::uint8_t>{} : std::move(reply), std::move(error));
  };
  auto frame = std::make_shared<const std::vector<std::uint8_t>>(std::move(delivered));
  const std::shared_ptr<Connection> inner = inner_;
  inner->send(*frame, [inner, frame, duplicate, deliver, done = std::move(done)](
                          std::vector<std::uint8_t> reply, std::exception_ptr error) {
    if (error || !duplicate) return deliver(done, std::move(reply), std::move(error));
    // The network replays the same sealed bytes; the receiver's sequence
    // tracking rejects them, and that rejection never reaches the caller.
    inner->send(*frame, [deliver, done, reply = std::move(reply)](
                            std::vector<std::uint8_t>, std::exception_ptr) mutable {
      deliver(done, std::move(reply), nullptr);
    });
  });
}

}  // namespace cppflare::flare
