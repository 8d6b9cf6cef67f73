// The federated server: client manager + ScatterAndGather controller.
//
// Implements the server half of the paper's Fig. 1/Fig. 3 pipeline:
// provisioned clients register with their tokens, then for E rounds the
// server hands out the global model as a train task, collects contributions
// through the filter chain into the aggregator, aggregates when everyone
// has reported, persists the model, and advances. All entry points are
// thread-safe; transports call `dispatcher()` from any number of threads.
//
// Failure model (DESIGN.md §9): per-round deadlines close a round with at
// least `min_clients` contributions (or abort the run below that), sites
// unseen past the liveness timeout are evicted from the quorum and
// re-admitted on their next authenticated frame, and a server restarted
// from a Checkpoint resumes at the round after the last completed one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "core/trace.h"
#include "flare/aggregator.h"
#include "flare/filters.h"
#include "flare/fl_context.h"
#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/persistor.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/transport.h"
#include "flare/validator.h"

namespace cppflare::flare {

/// Secure-aggregation recovery knobs (DESIGN.md §14). Enabling requires a
/// MaskRecoveryCapable aggregator; masked rounds that close with sites
/// missing then freeze in a bounded recovery phase instead of publishing a
/// corrupted aggregate.
struct ServerSecureAggConfig {
  bool enabled = false;
  /// Budget for each recovery wave: survivors that have not revealed their
  /// mask share when it expires are demoted (their contribution revoked,
  /// their name added to the dropped set) and the next wave begins.
  std::int64_t recovery_deadline_ms = 5000;
  /// Demotion cascade bound: abort when this many waves did not converge.
  std::int64_t max_recovery_waves = 4;
};

/// Why a run aborted, typed — the string abort_reason() stays the human
/// narrative, this is the machine-checkable classification.
enum class AbortCode : std::uint8_t {
  kNone = 0,
  /// abort() called from outside (operator / harness teardown).
  kExternal = 1,
  /// Every contribution this round was rejected by the update validator.
  kAllRejected = 2,
  /// Round deadline passed with fewer than min_clients contributions.
  kDeadlineBelowQuorum = 3,
  /// Mask recovery demoted the surviving set below min_clients.
  kRecoveryBelowQuorum = 4,
  /// Mask recovery spent its wave budget without converging.
  kRecoveryExhausted = 5,
};

const char* abort_code_name(AbortCode code);

struct ServerConfig {
  /// Required, with no default: the job registry keys servers by job id and
  /// routes wire frames on it (DESIGN.md §16), so a silently shared
  /// placeholder would collide. Construction throws ConfigError when empty.
  std::string job_id;
  std::int64_t num_rounds = 10;
  /// Graceful-degradation floor: a round that hits its deadline closes with
  /// at least this many contributions; below it the run aborts. Capped by
  /// the round's participant count, so leaving it at the client count means
  /// "wait for everyone".
  std::int64_t min_clients = 8;
  /// Clients that must register before train tasks are issued.
  std::int64_t expected_clients = 8;
  /// Partial participation: when > 0, each round samples this many of the
  /// registered clients (seeded, without replacement); only they receive
  /// train tasks and the round closes after that many contributions.
  std::int64_t clients_per_round = 0;
  std::uint64_t sampling_seed = 1337;
  /// Straggler handling: when > 0, a round older than this closes with
  /// `min_clients`..quorum contributions — or aborts the run if even
  /// `min_clients` have not reported. Checked on client traffic and by the
  /// server's ticker thread (so deadlines fire even when every client is
  /// parked in a long-poll and generating no frames).
  std::int64_t round_deadline_ms = 0;
  /// Dead-site handling: when > 0, a participant unseen for this long while
  /// a round is open is evicted — it stops counting toward the quorum until
  /// its next authenticated frame re-admits it. Checked on traffic and by
  /// the ticker; a site with a parked long-poll counts as seen.
  std::int64_t liveness_timeout_ms = 0;
  /// Update-validation pipeline applied before the aggregator (defaults
  /// screen schema/finiteness/freshness; the norm-outlier pass is off).
  ValidatorConfig validator;
  /// Cross-round quarantine/parole policy (quarantine off by default).
  ReputationConfig reputation;
  /// Secure-aggregation mask recovery (off by default). Incompatible with
  /// clients_per_round sampling: a sampled-out site's pairwise masks never
  /// cancel, so construction throws ConfigError on that pairing.
  ServerSecureAggConfig secure_agg;
};

class FederatedServer {
 public:
  /// `resume` restores a checkpointed run: the global model, metrics
  /// history, and round counter continue from `resume->round + 1` instead
  /// of round 0 (throws ConfigError on a job_id mismatch).
  ///
  /// `journal` adds intra-round durability (DESIGN.md §15): every round
  /// mutation is journaled before it is applied, and construction replays a
  /// journal left by a crashed predecessor — when its open round matches
  /// the resume point the server resumes *within* that round (buffered
  /// contributions, reputation strikes, recovery-wave position restored;
  /// already-submitted sites answer kDuplicate instead of re-training); a
  /// journal for any other round is stale (the checkpoint superseded it)
  /// and is discarded with a warning. A journal from a different job is a
  /// typed ConfigError.
  FederatedServer(ServerConfig config, std::map<std::string, Credential> registry,
                  nn::StateDict initial_model,
                  std::unique_ptr<Aggregator> aggregator,
                  std::shared_ptr<ModelPersistor> persistor = nullptr,
                  std::optional<Checkpoint> resume = std::nullopt,
                  std::shared_ptr<RoundJournal> journal = nullptr);
  ~FederatedServer();

  /// The sealed-bytes entry point for transports. The returned callable
  /// keeps *this alive only as long as the server object; do not use it
  /// after destruction.
  ///
  /// This synchronous form answers every request inline and NEVER parks a
  /// get_task (GetTaskRequest::wait_ms is ignored) — the caller's thread is
  /// the transport's only delivery vehicle, so holding it hostage would
  /// stall unrelated requests. Long-poll dispatch needs async_dispatcher().
  Dispatcher dispatcher();

  /// The long-poll-capable entry point: a get_task with wait_ms > 0 whose
  /// answer would be kNone is *parked* — the RespondFn is retained and
  /// completed when the round opens/advances/stops or the (clamped) wait
  /// expires — instead of bouncing kNone back for the client to re-poll.
  /// At most one park per site; a newer poll from the same site completes
  /// the older park with kNone. Completions may be delivered from another
  /// site's dispatch thread, the server's ticker thread, or the destructor;
  /// RespondFns must tolerate all three (the reactor's do).
  AsyncDispatcher async_dispatcher();

  /// Filters applied to every inbound contribution before aggregation.
  FilterChain& inbound_filters() { return inbound_filters_; }

  EventBus& events() { return events_; }

  /// Called after every aggregation with the round index, a copy of the new
  /// global model, and the round's metrics. Observers run in registration
  /// order on the submitting client's dispatch path while the server lock
  /// is held: keep them cheap and never call back into the server from one.
  using RoundObserver =
      std::function<void(std::int64_t, const nn::StateDict&, const RoundMetrics&)>;
  void add_round_observer(RoundObserver observer) {
    // Guarded by mu_: registration may race a round finishing on a client
    // dispatch thread, which iterates this vector under the same lock.
    core::MutexLock lock(mu_);
    round_observers_.push_back(std::move(observer));
  }
  /// Kills the run: polling clients receive kStop, waiters wake with false.
  /// Used when an operator (or a crash-simulation harness) tears the run
  /// down mid-flight; also taken internally when a round deadline passes
  /// below `min_clients`. Refuses (returns false) once the run is already
  /// terminal, so an abort racing a clean finish cannot overwrite the
  /// finished state.
  bool abort(const std::string& reason);

  bool finished() const;
  bool aborted() const;
  /// True when the run was already terminal at construction (a resume past
  /// its last round): kEndRun never fires for such a run. Immutable after
  /// construction and readable without the server lock — the job registry
  /// checks it at admission while holding its own lock, where taking this
  /// server's lock would invert the documented server→runner lock order.
  bool born_terminal() const { return born_terminal_; }
  std::string abort_reason() const;
  AbortCode abort_code() const;
  /// Blocks until the run completes or aborts. Returns false on timeout or
  /// abort (see abort_reason()); true only for a successful finish.
  bool wait_until_finished(std::int64_t timeout_ms) const;

  nn::StateDict global_model() const;

  /// The run's metric registry — the primary telemetry surface since the
  /// observability PR (names in flare/observability.h metric_names;
  /// per-site gauges under "site.<name>."). `history()` and the
  /// RoundMetrics handed to round observers are thin views rebuilt from
  /// these metrics when a round closes.
  core::MetricRegistry& metrics_registry() { return metrics_; }
  /// Point-in-time copy of every metric (thread-safe, lock-free wrt mu_).
  core::MetricSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  std::vector<RoundMetrics> history() const;
  std::int64_t current_round() const;
  std::int64_t registered_clients() const;
  /// Sites currently evicted by the liveness tracker.
  std::vector<std::string> evicted_sites() const;
  /// Sites currently quarantined by the reputation tracker.
  std::vector<std::string> quarantined_sites() const;
  /// A copy of every site's reputation standing.
  std::map<std::string, SiteStanding> reputation() const;

  /// Replaces the outbound sequence counters with a pool shared across
  /// sealers (the JobRunner installs one spanning its router and every
  /// hosted server, so a client sees strictly increasing "server" sequences
  /// no matter which component sealed the reply). Must be called before any
  /// traffic is dispatched.
  void share_outbound_sequences(std::shared_ptr<SequencePool> pool) {
    if (pool) outbound_seq_ = std::move(pool);
  }

 private:
  std::vector<std::uint8_t> handle_sealed(const std::vector<std::uint8_t>& request);
  void handle_sealed_async(const std::vector<std::uint8_t>& request,
                           RespondFn respond);
  std::vector<std::uint8_t> handle_frame(const std::string& sender,
                                         const std::vector<std::uint8_t>& frame);
  std::vector<std::uint8_t> seal_as_server(const std::string& sender,
                                           const std::vector<std::uint8_t>& key,
                                           const std::vector<std::uint8_t>& body);

  /// Async-path get_task: parks the call (consuming `respond`) or stages an
  /// immediate reply on ready_replies_. Only moves from `respond` on
  /// success, so the caller's error paths can still answer after a throw.
  void park_or_reply_get_task(const std::string& sender,
                              const std::vector<std::uint8_t>& key,
                              const GetTaskRequest& req, RespondFn& respond);

  std::vector<std::uint8_t> on_register(const std::string& sender,
                                        const RegisterRequest& req);
  std::vector<std::uint8_t> on_get_task(const std::string& sender,
                                        const GetTaskRequest& req);
  std::vector<std::uint8_t> on_submit(const std::string& sender,
                                      SubmitUpdateRequest req);
  std::vector<std::uint8_t> on_unmask(const std::string& sender,
                                      const UnmaskResponse& req);

  FLContext make_context_locked() const CF_REQUIRES(mu_);
  TaskMessage build_task_locked(const std::string& sender) CF_REQUIRES(mu_);
  /// What a poll from `sender` should receive *now*: during mask recovery a
  /// survivor that owes its share gets an UnmaskRequest, everyone else a
  /// TaskMessage. `parkable` marks the do-nothing kNone answer a long-poll
  /// may hold instead of delivering.
  struct PollReply {
    std::vector<std::uint8_t> body;
    bool parkable = false;
  };
  PollReply build_poll_reply_locked(const std::string& sender) CF_REQUIRES(mu_);
  /// Completes every parked poll whose task is no longer kNone (or whose
  /// deadline passed) by staging it on ready_replies_. Called after any
  /// state change that can change build_task_locked's answer.
  void service_parked_locked() CF_REQUIRES(mu_);
  /// Seals and delivers everything staged on ready_replies_. Must be called
  /// with mu_ RELEASED (respond may wake a client that immediately calls
  /// back in).
  void drain_ready_replies();
  void ticker_loop();
  void start_round_locked() CF_REQUIRES(mu_);
  void finish_round_locked(bool deadline_fired) CF_REQUIRES(mu_);
  void maybe_close_round_locked() CF_REQUIRES(mu_);
  /// Round-close gate: a masked round with missing sites detours into the
  /// recovery phase; everything else finishes directly.
  void close_round_locked(bool deadline_fired) CF_REQUIRES(mu_);
  void begin_recovery_locked(std::vector<std::string> dropped,
                             bool deadline_fired) CF_REQUIRES(mu_);
  /// Drives the recovery phase: finishes the round when every share is in,
  /// or runs the demotion cascade when the wave deadline expired.
  void advance_recovery_locked() CF_REQUIRES(mu_);
  void finish_recovery_locked() CF_REQUIRES(mu_);
  void evict_stragglers_locked() CF_REQUIRES(mu_);
  void abort_run_locked(const std::string& reason,
                        AbortCode code = AbortCode::kExternal)
      CF_REQUIRES(mu_);
  /// Re-drives journaled round events through the normal admission paths so
  /// a restarted server resumes mid-round (ctor only; see class comment).
  void apply_journal_locked(const JournalReplay& replay) CF_REQUIRES(mu_);
  void record_liveness(const std::string& sender);
  void sample_round_participants_locked() CF_REQUIRES(mu_);
  void settle_round_verdicts_locked() CF_REQUIRES(mu_);
  void record_rejection_locked(RejectReason reason) CF_REQUIRES(mu_);
  void record_site_metrics_locked(const std::string& site, const Dxo& contribution) CF_REQUIRES(mu_);
  std::map<std::string, std::int64_t> round_rejects_locked() const CF_REQUIRES(mu_);
  bool participates_locked(const std::string& site) const CF_REQUIRES(mu_);
  bool resolved_locked(const std::string& site) const CF_REQUIRES(mu_);
  /// The round's quorum state, counted over sampled, unquarantined sites.
  struct Quorum {
    /// min_clients, capped at this round's participant count (at least 1).
    std::int64_t min_required = 1;
    /// Resolved participants that close the round: every live one, and
    /// never fewer than min_required.
    std::int64_t needed = 1;
    std::int64_t resolved = 0;
  };
  Quorum quorum_locked() const CF_REQUIRES(mu_);

  // config_ and registry_ are immutable after construction; inbound_filters_
  // and events_ are configured before the run starts and are internally
  // synchronized (EventBus) or read-only on the dispatch path — none of them
  // needs mu_. Everything below mu_ is round/run state guarded by it.
  ServerConfig config_;
  std::map<std::string, Credential> registry_;
  std::vector<RoundObserver> round_observers_ CF_GUARDED_BY(mu_);
  FilterChain inbound_filters_;
  EventBus events_;
  std::shared_ptr<ModelPersistor> persistor_;
  /// Write-ahead round journal (null = no intra-round durability). The
  /// pointee is single-writer and every call happens with mu_ held, so mu_
  /// is its capability just like the aggregator's.
  std::shared_ptr<RoundJournal> journal_;

  mutable core::Mutex mu_;
  mutable core::CondVar finished_cv_;
  nn::StateDict global_ CF_GUARDED_BY(mu_);
  // The aggregator's per-site buffers and the validator's admitted-norm set
  // have no locks of their own: FederatedServer::mu_ is their capability
  // (accept/revoke/aggregate and admit/score/flag_outliers are only ever
  // called with mu_ held).
  std::unique_ptr<Aggregator> aggregator_ CF_GUARDED_BY(mu_)
      CF_PT_GUARDED_BY(mu_);
  UpdateValidator validator_ CF_GUARDED_BY(mu_);
  SiteReputation reputation_ CF_GUARDED_BY(mu_);
  std::map<std::string, std::string> sessions_
      CF_GUARDED_BY(mu_);                        // site -> session id
  std::set<std::string> submitted_ CF_GUARDED_BY(mu_);  // accepted this round
  /// Sites resolved this round by a rejection (validator verdict or
  /// quarantine scoring), mapped to the ack we sent so resends are
  /// answered identically.
  std::map<std::string, SubmitAck> rejected_acks_ CF_GUARDED_BY(mu_);
  /// Quarantined sites' scored uploads: screening verdict + deviation
  /// norm, judged against the round population when the round closes.
  struct ScoredUpload {
    Verdict verdict;
    double norm = 0.0;
  };
  std::map<std::string, ScoredUpload> scored_quarantined_ CF_GUARDED_BY(mu_);
  /// Per-run metric registry (see metrics_registry()). Rejection tallies
  /// live here as "server.rejections.<reason>" counters; the per-round view
  /// in RoundMetrics is rebuilt by diffing against `reject_baseline_`,
  /// snapshotted when the round starts.
  core::MetricRegistry metrics_;  // internally synchronized
  std::map<std::string, std::int64_t> reject_baseline_ CF_GUARDED_BY(mu_);
  std::set<std::string> sampled_
      CF_GUARDED_BY(mu_);                        // this round's participants
  std::map<std::string, std::chrono::steady_clock::time_point> last_seen_
      CF_GUARDED_BY(mu_);
  std::set<std::string> evicted_
      CF_GUARDED_BY(mu_);                        // unseen past the timeout
  std::int64_t round_ CF_GUARDED_BY(mu_) = 0;
  /// True between a ctor journal replay and that round's close: the next
  /// start_round_locked must not resample or re-journal a round that is
  /// already open in the journal.
  bool round_replayed_ CF_GUARDED_BY(mu_) = false;
  /// Round whose kRoundOpen frame is in the journal (-1 none) — makes the
  /// double start_round_locked call benign (register racing a replayed
  /// recovery finish) instead of journaling a second open frame.
  std::int64_t journal_open_round_ CF_GUARDED_BY(mu_) = -1;
  std::chrono::steady_clock::time_point round_start_ CF_GUARDED_BY(mu_){};
  std::int64_t round_start_ns_ CF_GUARDED_BY(mu_) = 0;  // round span start
  bool started_ CF_GUARDED_BY(mu_) = false;
  bool finished_ CF_GUARDED_BY(mu_) = false;
  bool aborted_ CF_GUARDED_BY(mu_) = false;
  bool born_terminal_ = false;  // set in the ctor, immutable after
  std::string abort_reason_ CF_GUARDED_BY(mu_);
  AbortCode abort_code_ CF_GUARDED_BY(mu_) = AbortCode::kNone;

  /// Mask-recovery round state (DESIGN.md §14). The round number does not
  /// advance during kRecovering — the round is frozen: submits bounce with
  /// kRecoveryInProgress, polls from anyone but a share-owing survivor
  /// park, and quorum logic is bypassed until recovery resolves.
  enum class RoundPhase : std::uint8_t { kCollecting, kRecovering };
  RoundPhase phase_ CF_GUARDED_BY(mu_) = RoundPhase::kCollecting;
  /// The aggregator's recovery side-interface (dynamic_cast once at
  /// construction; null for unmasked aggregators). Pointee state is the
  /// aggregator's, so the same mu_ capability applies.
  MaskRecoveryCapable* mask_recovery_ = nullptr;
  std::vector<std::string> recovery_dropped_ CF_GUARDED_BY(mu_);
  /// Survivors that still owe their mask share this wave. Exempt from
  /// straggler eviction: they are doing protocol work for us.
  std::set<std::string> unmask_pending_ CF_GUARDED_BY(mu_);
  std::int64_t recovery_wave_ CF_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point recovery_deadline_ CF_GUARDED_BY(mu_){};
  std::int64_t recovery_start_ns_ CF_GUARDED_BY(mu_) = 0;
  bool recovery_deadline_fired_ CF_GUARDED_BY(mu_) = false;
  std::vector<RoundMetrics> history_ CF_GUARDED_BY(mu_);
  SequenceTracker inbound_seq_;  // internally synchronized
  /// Outbound "server" sequences, one counter per recipient. Internally
  /// synchronized; possibly shared with the JobRunner's router (see
  /// share_outbound_sequences).
  std::shared_ptr<SequencePool> outbound_seq_ = std::make_shared<SequencePool>();
  std::uint64_t session_counter_ CF_GUARDED_BY(mu_) = 0;

  /// A long-poll get_task waiting for its round. The RespondFn is the
  /// transport continuation; `key` re-seals without another registry lookup.
  struct ParkedPoll {
    std::vector<std::uint8_t> key;
    RespondFn respond;
    std::chrono::steady_clock::time_point deadline;
  };
  /// A reply whose state is decided but which cannot be delivered under mu_
  /// (respond may re-enter the server).
  struct ReadyReply {
    std::string sender;
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> body;  // packed, not yet sealed
    RespondFn respond;
  };
  std::map<std::string, ParkedPoll> parked_ CF_GUARDED_BY(mu_);
  std::vector<ReadyReply> ready_replies_ CF_GUARDED_BY(mu_);
  /// Wakes the ticker when the nearest park deadline moves or on shutdown.
  mutable core::CondVar ticker_cv_;
  bool ticker_stop_ CF_GUARDED_BY(mu_) = false;
  /// Drives time-based transitions (round deadlines, liveness eviction,
  /// park expiry) now that long-poll removed the steady client traffic the
  /// lazy checks used to piggyback on.
  std::thread ticker_thread_;  // R5-exempt: server ticker (deadlines/park expiry)
};

}  // namespace cppflare::flare
