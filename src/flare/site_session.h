// One site's half of the federated protocol, as a state machine.
//
// The client side of the paper's Fig. 1/Fig. 3 loop: register (token
// handshake), poll for a task, train, stamp the round, run the outbound
// filter chain, submit, poll again ... until the server says stop. Mask
// recovery (DESIGN.md §14) adds one detour: a poll may be answered with an
// UnmaskRequest, which the site answers with its mask share before polling
// again.
//
// The machine owns no clock, thread or connection. `next_frame()` seals the
// current step's request and `on_reply()` verifies the answer and advances,
// so exactly one exchange is outstanding at a time. One driver moves it:
// FederatedClient (flare/client.h) runs it as continuations on a worker pool
// over any Connection, with reconnect, backoff and an idle bound, for
// simulated and deployed sites alike.
//
// Error classification lives here, once:
//  * unverifiable replies and kRetryable errors throw TransportError — the
//    caller resends the same step, re-sealed under a fresh sequence number;
//  * kUnknownSession re-registers, then resends the interrupted step with
//    its payload unchanged (at most 3 times per interrupted step);
//  * everything else wrong — a reply not from the server or bound to
//    another job, a replayed sequence, kWrongJob, kFatal, a rejected
//    registration — throws ProtocolError.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "flare/filters.h"
#include "flare/learner.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"

namespace cppflare::flare {

class SiteSession {
 public:
  /// The request the next frame carries.
  enum class Step { kRegister, kPoll, kSubmit, kUnmask, kDone };

  /// What a verified reply did.
  enum class Outcome {
    kAdvanced,  // the protocol moved on (or began re-registering)
    kIdle,      // the poll came back task-less (kNone): poll again
    kDone,      // the server stopped the run
  };

  /// Answers the server's mask-recovery question: given the dropped sites
  /// and the round, the sum of this site's pairwise masks against them.
  /// `skeleton` is the server-supplied zeros template of the share, for a
  /// provider restarted after a crash with no upload-time state (DESIGN.md
  /// §15). Without a provider an UnmaskRequest is a ProtocolError, which is
  /// right for unmasked runs (the server never asks).
  using UnmaskProvider =
      std::function<Dxo(const std::vector<std::string>& dropped,
                        std::int64_t round, const nn::StateDict& skeleton)>;

  /// `job_id` (required; empty throws ConfigError) is stamped on every
  /// outbound envelope and carried into the learner's FLContext; replies
  /// bound to another job are rejected, unbound replies accepted.
  /// `long_poll_ms` (>= 1) is the wait budget sent with every get_task.
  SiteSession(Credential credential, std::string job_id,
              std::int64_t long_poll_ms, std::shared_ptr<Learner> learner);

  /// Filters applied to every outbound contribution, after the round stamp.
  FilterChain& outbound_filters() { return outbound_filters_; }
  void set_unmask_provider(UnmaskProvider provider) {
    unmask_provider_ = std::move(provider);
  }

  /// Seals the current step's request under a fresh sequence number,
  /// encoding it straight into the envelope.
  std::vector<std::uint8_t> next_frame();

  /// Opens and verifies the reply to the last frame, classifies errors (see
  /// the header comment) and advances. The reply is decrypted in place.
  Outcome on_reply(std::vector<std::uint8_t> sealed);

  Step step() const { return step_; }
  const std::string& site_name() const { return credential_.name; }
  /// Round of the contribution in flight (or last trained).
  std::int64_t round() const { return submit_.round; }

  std::int64_t rounds_participated() const { return rounds_participated_; }
  /// Contributions the server refused (validator rejection, quarantine,
  /// stale round).
  std::int64_t updates_rejected() const { return updates_rejected_; }
  std::int64_t reregistrations() const { return reregistrations_; }
  /// UnmaskRequests answered during mask-recovery phases.
  std::int64_t unmask_answers() const { return unmask_answers_; }

 private:
  void on_error(const ErrorMessage& err);
  Outcome on_poll(std::span<const std::uint8_t> payload);
  void train(const TaskMessage& task);

  Credential credential_;
  ChannelKey key_;  // credential_'s envelope key
  std::string job_id_;
  std::int64_t long_poll_ms_;
  std::shared_ptr<Learner> learner_;
  FilterChain outbound_filters_;
  UnmaskProvider unmask_provider_;

  Step step_ = Step::kRegister;
  /// The step a re-registration resumes.
  Step resume_ = Step::kPoll;
  SequenceSource seq_;
  SequenceTracker server_seq_;
  std::string session_id_;
  SubmitUpdateRequest submit_;  // the trained update awaiting its ack
  UnmaskResponse unmask_;       // the mask share awaiting its ack
  std::int64_t session_recoveries_ = 0;

  std::int64_t rounds_participated_ = 0;
  std::int64_t updates_rejected_ = 0;
  std::int64_t reregistrations_ = 0;
  std::int64_t unmask_answers_ = 0;
};

}  // namespace cppflare::flare
