// The federated server: client manager + ScatterAndGather controller.
//
// Implements the server half of the paper's Fig. 1/Fig. 3 pipeline:
// provisioned clients register with their tokens, then for E rounds the
// server hands out the global model as a train task, collects contributions
// through the filter chain into the aggregator, aggregates when everyone
// has reported, persists the model, and advances. All entry points are
// thread-safe; transports call `async_dispatcher()` from any number of
// threads.
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
#include <span>
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
  /// `min_clients` have not reported. Checked by the server's ticker thread,
  /// so deadlines fire even when every client is parked in a long-poll.
  std::int64_t round_deadline_ms = 0;
  /// Dead-site handling: when > 0, a participant unseen for this long while
  /// a round is open is evicted — it stops counting toward the quorum until
  /// its next authenticated frame re-admits it. Checked by the ticker; a
  /// site with a parked long-poll counts as seen.
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
  /// must not outlive the server. A get_task with wait_ms > 0 whose answer
  /// would be kNone is *parked* — the RespondFn is retained and completed
  /// when the round opens/advances/stops or the (clamped) wait expires —
  /// instead of bouncing kNone back for the client to re-poll; wait_ms == 0
  /// never parks.
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
  const SequencePool& outbound_sequences() const { return *outbound_seq_; }

 private:
  /// A packed reply body. Shared because every site polling round r gets
  /// the same kTrain body, encoded once per round (train_task_locked).
  using Body = std::shared_ptr<const std::vector<std::uint8_t>>;
  static Body body_of(std::vector<std::uint8_t> bytes) {
    return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  }

  /// Authenticates one sealed request and answers it through `respond`
  /// (now, or later for a parked get_task).
  void dispatch(const std::vector<std::uint8_t>& request, RespondFn respond);
  /// Register, submit and unmask: answered inline with a packed body.
  std::vector<std::uint8_t> handle_frame(const std::string& sender,
                                         std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> seal_as_server(const std::string& sender,
                                           const ChannelKey& key,
                                           const std::vector<std::uint8_t>& body);

  /// get_task: parks the call (consuming `respond`) or stages an immediate
  /// reply on ready_replies_. Only moves from `respond` on success, so the
  /// caller's error paths can still answer after a throw.
  void park_or_reply_get_task(const std::string& sender, const ChannelKey& key,
                              const GetTaskRequest& req, RespondFn& respond);

  std::vector<std::uint8_t> on_register(const std::string& sender,
                                        const RegisterRequest& req);
  std::vector<std::uint8_t> on_submit(const std::string& sender,
                                      SubmitUpdateRequest req);
  std::vector<std::uint8_t> on_unmask(const std::string& sender,
                                      const UnmaskResponse& req);

  /// Everything the server tracks about one provisioned site (DESIGN.md
  /// §9): one record per registry entry, built at construction, so every
  /// authenticated sender has one.
  struct Site {
    std::string session;  // empty: not registered
    std::chrono::steady_clock::time_point last_seen{};
    /// Unseen past the liveness timeout; its next frame re-admits it.
    bool evicted = false;
    /// In the open round's cohort. This and every field below it are per
    /// round: open_round_locked resets them.
    bool in_cohort = false;
    enum class Outcome : std::uint8_t { kOpen, kAccepted, kRejected };
    Outcome outcome = Outcome::kOpen;
    /// The ack a kRejected site got, so resends are answered identically
    /// (read only while outcome is kRejected).
    SubmitAck rejected_ack;
    /// A quarantined site's scored upload — screening verdict and deviation
    /// norm — judged against the round population when the round closes.
    std::optional<Verdict> scored;
    double scored_norm = 0.0;
    /// Owes its mask share this recovery wave.
    bool owes_share = false;

    bool registered() const { return !session.empty(); }
  };
  /// The record of a sender whose session id is `session_id`; throws
  /// UnknownSessionError (as `what`) when it has none.
  Site& session_site_locked(const std::string& sender,
                            const std::string& session_id, const char* what)
      CF_REQUIRES(mu_);

  FLContext make_context_locked() const CF_REQUIRES(mu_);
  /// What `site`'s task is outside mask recovery: kStop once the run is
  /// over, kTrain while it owes this round a contribution, else kNone.
  TaskKind task_kind_locked(const Site& site) const CF_REQUIRES(mu_);
  /// True when a poll from `site` would only get the do-nothing kNone
  /// answer, which a long-poll holds instead of delivering. Decided from
  /// round state alone; nothing is packed.
  bool poll_parks_locked(const Site& site) const CF_REQUIRES(mu_);
  /// What a poll from `site` should receive *now*: during mask recovery a
  /// survivor that owes its share gets an UnmaskRequest, everyone else a
  /// TaskMessage.
  Body poll_reply_locked(const Site& site) CF_REQUIRES(mu_);
  /// This round's kTrain TaskMessage body, packed on first use and shared
  /// by every site the round hands it to.
  Body train_task_locked() CF_REQUIRES(mu_);
  /// Completes every parked poll that no longer parks (or whose deadline
  /// passed) by staging its reply on ready_replies_. Called after any state
  /// change that can change poll_parks_locked's answer.
  void service_parked_locked() CF_REQUIRES(mu_);
  /// Seals and delivers everything staged on ready_replies_. Must be called
  /// with mu_ RELEASED (respond may wake a client that immediately calls
  /// back in).
  void drain_ready_replies();
  /// When the ticker must next run: the nearest round deadline, recovery
  /// wave deadline or park expiry; every 20 ms while liveness is tracked;
  /// else in 500 ms.
  std::chrono::steady_clock::time_point next_tick_locked() const CF_REQUIRES(mu_);
  /// Wakes the ticker early when `at` comes before its planned wake.
  void wake_ticker_locked(std::chrono::steady_clock::time_point at) CF_REQUIRES(mu_);
  void ticker_loop();
  void start_round_locked() CF_REQUIRES(mu_);
  void finish_round_locked(bool deadline_fired) CF_REQUIRES(mu_);
  void maybe_close_round_locked() CF_REQUIRES(mu_);
  /// Round-close gate: a masked round with missing sites detours into the
  /// recovery phase; everything else finishes directly.
  void close_round_locked(bool deadline_fired) CF_REQUIRES(mu_);
  /// Drives the recovery phase: finishes the round when every share is in,
  /// or runs the demotion cascade when the wave deadline expired.
  void advance_recovery_locked() CF_REQUIRES(mu_);
  void finish_recovery_locked() CF_REQUIRES(mu_);
  void evict_stragglers_locked() CF_REQUIRES(mu_);
  void abort_run_locked(const std::string& reason,
                        AbortCode code = AbortCode::kExternal)
      CF_REQUIRES(mu_);

  /// Journaled transitions, one helper each. The live path journals the
  /// event and then calls the helper; journal replay calls the same helper
  /// with the journaled values, so a restarted server cannot drift from the
  /// one that crashed. open_round_locked sets every record's cohort
  /// membership (an empty cohort: everyone) and resets the per-round fields
  /// and the rejection tally.
  void open_round_locked(const std::vector<std::string>& cohort) CF_REQUIRES(mu_);
  void accept_locked(const std::string& site) CF_REQUIRES(mu_);
  /// Also the norm-outlier revocation at round close (not journaled: it is
  /// recomputed from the replayed admissions).
  void reject_locked(const std::string& site, SubmitAck ack) CF_REQUIRES(mu_);
  void score_quarantined_locked(const std::string& site, Verdict verdict,
                                double norm) CF_REQUIRES(mu_);
  void enter_recovery_locked(std::vector<std::string> dropped,
                             bool deadline_fired) CF_REQUIRES(mu_);
  void record_share_locked(const std::string& site) CF_REQUIRES(mu_);
  void demote_wave_locked(const std::vector<std::string>& laggards)
      CF_REQUIRES(mu_);
  /// Starts a recovery wave: every survivor owes its share against the
  /// current dropped set, within a fresh deadline.
  void open_wave_locked() CF_REQUIRES(mu_);
  /// Rebuilds a crashed predecessor's open round from the journal by
  /// dispatching each event to its transition helper (ctor only).
  void apply_journal_locked(const JournalReplay& replay) CF_REQUIRES(mu_);

  void record_liveness(const std::string& sender);
  /// This round's cohort, sorted: with clients_per_round sampling, the draw
  /// (or every registered site when the draw would take them all); without
  /// it, empty = everyone participates, late registrants included.
  std::vector<std::string> sample_cohort_locked() const CF_REQUIRES(mu_);
  void settle_round_verdicts_locked() CF_REQUIRES(mu_);
  /// Bumps the registry's rejection counters and the round's tally.
  void record_rejection_locked(RejectReason reason) CF_REQUIRES(mu_);
  void record_site_metrics_locked(const std::string& site, const Dxo& contribution) CF_REQUIRES(mu_);
  /// The open round's quorum state, counted over registered, unquarantined
  /// cohort members. Evaluated by every submit and by the ticker, never by
  /// a poll.
  struct Quorum {
    /// min_clients, capped at this round's participant count (at least 1).
    std::int64_t min_required = 1;
    /// Resolved participants that close the round: every live one, and
    /// never fewer than min_required.
    std::int64_t needed = 1;
    std::int64_t resolved = 0;
  };
  Quorum quorum_locked() const CF_REQUIRES(mu_);

  // config_, registry_ and keys_ are immutable after construction; inbound_filters_
  // and events_ are configured before the run starts and are internally
  // synchronized (EventBus) or read-only on the dispatch path — none of them
  // needs mu_. Everything below mu_ is round/run state guarded by it.
  ServerConfig config_;
  std::map<std::string, Credential> registry_;
  /// registry_'s envelope keys, derived once.
  std::map<std::string, ChannelKey> keys_;
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
  /// One record per provisioned site, in name order.
  std::map<std::string, Site> sites_ CF_GUARDED_BY(mu_);
  /// Per-run metric registry (see metrics_registry()). Rejection tallies
  /// live here as "server.rejections.<reason>" counters.
  core::MetricRegistry metrics_;  // internally synchronized
  /// This round's rejections by reject_reason_name(), the RoundMetrics
  /// view; journal replay rebuilds it through the same helpers.
  std::map<std::string, std::int64_t> round_rejections_ CF_GUARDED_BY(mu_);
  std::int64_t round_ CF_GUARDED_BY(mu_) = 0;
  /// train_task_locked's cache: the packed kTrain body of round
  /// `task_body_round_` (dropped when that round closes).
  Body task_body_ CF_GUARDED_BY(mu_);
  std::int64_t task_body_round_ CF_GUARDED_BY(mu_) = -1;
  /// The open round (-1 none). start_round_locked on a round that is
  /// already open (replayed, or opened by a replayed recovery finishing
  /// before the run started) only restarts the round clock.
  std::int64_t open_round_ CF_GUARDED_BY(mu_) = -1;
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
    ChannelKey key;
    RespondFn respond;
    std::chrono::steady_clock::time_point deadline;
  };
  /// A reply whose state is decided but which cannot be delivered under mu_
  /// (respond may re-enter the server).
  struct ReadyReply {
    std::string sender;
    ChannelKey key;
    Body body;  // packed, not yet sealed
    RespondFn respond;
  };
  std::map<std::string, ParkedPoll> parked_ CF_GUARDED_BY(mu_);
  std::vector<ReadyReply> ready_replies_ CF_GUARDED_BY(mu_);
  /// Wakes the ticker when its next wake moves earlier or on shutdown.
  mutable core::CondVar ticker_cv_;
  bool ticker_stop_ CF_GUARDED_BY(mu_) = false;
  /// The ticker's planned wake (see wake_ticker_locked).
  std::chrono::steady_clock::time_point ticker_wake_at_ CF_GUARDED_BY(mu_){};
  /// The only owner of time: round deadlines, liveness eviction, recovery
  /// wave deadlines and park expiry. Client frames never check the clock.
  std::thread ticker_thread_;  // R5-exempt: server ticker (deadlines/park expiry)
};

}  // namespace cppflare::flare
