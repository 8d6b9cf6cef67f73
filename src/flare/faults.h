// Fault-injection transport decorator.
//
// `FaultyConnection` wraps any `Connection` (in-proc or TCP) and injects
// transport failures — dropped frames, delays, duplicated frames, bit
// corruption, hard disconnects — according to a `FaultPlan`. All randomness
// comes from a seeded core::Rng (lint R1), so a given (plan, seed) produces
// the exact same fault sequence every run: fault-tolerance tests are
// reproducible, never flaky. This is the simulator-side stand-in for the
// real-deployment failures the NVFlare paper calls out (crashing sites,
// flapping links, stragglers).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Probabilities are evaluated per send(), in a fixed order (disconnect,
/// drop, delay, duplicate, corrupt), so the injected sequence is a pure
/// function of the seed and the call index.
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  /// Hard-kill the connection before delivery; every later call on this
  /// connection fails until the owner reconnects (see ConnectionFactory).
  double disconnect_prob = 0.0;
  /// Deterministic variant: disconnect exactly once, on this 0-based call
  /// index (-1 = never). Fires in addition to disconnect_prob.
  std::int64_t disconnect_on_call = -1;
  /// The frame vanishes: even-numbered drops lose the request (the server
  /// never sees it), odd-numbered drops lose the response (the server
  /// processed it — retries must be idempotent).
  double drop_prob = 0.0;
  /// Stall the exchange by delay_ms before delivery (straggler injection).
  double delay_prob = 0.0;
  std::int64_t delay_ms = 5;
  /// Deliver the sealed frame twice; the duplicate's response is discarded
  /// (exercises the server's replay protection).
  double duplicate_prob = 0.0;
  /// Flip one random bit of the sealed request before delivery (exercises
  /// tag verification and the retryable-error path).
  double corrupt_prob = 0.0;
  /// Stop injecting after this many faults (-1 = unlimited); lets a plan
  /// model a transient outage that heals.
  std::int64_t max_faults = -1;

  bool enabled() const {
    return disconnect_prob > 0.0 || disconnect_on_call >= 0 || drop_prob > 0.0 ||
           delay_prob > 0.0 || duplicate_prob > 0.0 || corrupt_prob > 0.0;
  }
};

/// Injected-fault counters; share one instance across reconnects to see a
/// site's whole fault history.
struct FaultStats {
  std::int64_t calls = 0;
  std::int64_t disconnects = 0;
  std::int64_t dropped_requests = 0;
  std::int64_t dropped_responses = 0;
  std::int64_t delays = 0;
  std::int64_t duplicates = 0;
  std::int64_t corruptions = 0;

  std::int64_t total_faults() const {
    return disconnects + dropped_requests + dropped_responses + delays +
           duplicates + corruptions;
  }
};

class FaultyConnection : public Connection {
 public:
  FaultyConnection(std::unique_ptr<Connection> inner, FaultPlan plan,
                   std::shared_ptr<FaultStats> stats = nullptr);

  /// Completes with a TransportError for injected drops/disconnects;
  /// otherwise delivers (possibly delayed, duplicated, or corrupted) and
  /// completes with the genuine response. A duplicated frame's caller hears
  /// back only once both deliveries completed.
  void send(const std::vector<std::uint8_t>& request, Done done) override;

  const FaultStats& stats() const { return *stats_; }
  bool disconnected() const { return !inner_; }

 private:
  bool faults_left() const;

  /// Shared with in-flight completions: a duplicated frame is re-sent from
  /// the first delivery's completion.
  std::shared_ptr<Connection> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultStats> stats_;
  core::Rng rng_;
  std::int64_t call_index_ = 0;
  std::int64_t injected_ = 0;
  std::int64_t drop_parity_ = 0;
};

}  // namespace cppflare::flare
