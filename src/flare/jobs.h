// Multi-job coordinator (DESIGN.md §16).
//
// Real NVFlare is a long-lived system: one server process hosts many jobs
// over a shared site pool behind an admin console. `JobRunner` is that
// subsystem — a job registry plus scheduler that runs N concurrent
// federated jobs, each with its own rounds/model/aggregator/filter stack
// and its own durability (per-job CPK3 checkpoint + round journal), admits
// jobs resource-aware against the process compute-thread budget
// (core/parallel.h; jobs queue when the budget is exhausted and start when
// capacity frees), and routes wire frames to the right job by the
// envelope's authenticated `job_id`.
//
// JobRunner is the only sanctioned way to construct a FederatedServer
// outside the test tree (lint rule R14): hosting every server behind one
// registry is what makes job ids collision-checked, frames routable, and
// the admin console able to see every run.
//
// Admin API: a line protocol over the same sealed transport. A frame from
// the provisioned "admin" identity carries a UTF-8 command line instead of
// a tagged message; the reply payload is UTF-8 text starting "ok" or "err".
// Commands: `submit <blueprint> <job>` (instantiate a registered blueprint),
// `list`, `status <job>`, `abort <job> [reason]`, `metrics <job>`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "core/wal.h"
#include "flare/server.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Lifecycle of a registered job.
enum class JobState : std::uint8_t {
  kQueued = 0,    // submitted, waiting for compute capacity
  kRunning = 1,   // server constructed, rounds in progress
  kFinished = 2,  // all rounds completed
  kAborted = 3,   // aborted (operator, quorum failure, or cancelled queued)
};

const char* job_state_name(JobState state);

/// Everything the registry needs to build and run one federated job: the
/// FederatedServer construction surface plus scheduling and durability
/// knobs. Movable, not copyable (owns the aggregator).
struct JobSpec {
  /// server.job_id names the job; the registry enforces uniqueness.
  ServerConfig server;
  nn::StateDict initial_model;
  std::unique_ptr<Aggregator> aggregator;
  /// Scheduler weight: compute slots this job occupies against the process
  /// budget (core::compute_threads() at admission time). Clamped to
  /// [1, budget], so a job demanding more than the machine still runs —
  /// alone.
  std::int64_t compute_slots = 1;
  /// Per-job CPK3 checkpoint path (empty = no checkpointing). With
  /// `resume`, an existing checkpoint restores the job past a coordinator
  /// restart independently of every other job.
  std::string persist_path;
  bool resume = false;
  /// Per-job write-ahead round journal (DESIGN.md §15); empty journal_path
  /// derives `persist_path + ".journal"`.
  bool journal = false;
  std::string journal_path;
  core::WalSyncPolicy journal_sync = core::WalSyncPolicy::kEveryRound;
  /// Runs right after the job's server is constructed, before any frame is
  /// routed to it — the hook for inbound filters, event subscriptions, and
  /// round observers (a queued job has no server to configure yet).
  std::function<void(FederatedServer&)> configure;
};

/// Point-in-time view of one job for `list`/`status`.
struct [[nodiscard]] JobStatus {
  std::string job_id;
  JobState state = JobState::kQueued;
  std::int64_t current_round = 0;
  std::int64_t num_rounds = 0;
  std::int64_t registered_clients = 0;
  std::int64_t compute_slots = 1;
  AbortCode abort_code = AbortCode::kNone;
  std::string abort_reason;
};

/// Authenticated admin console client: seals each command line as the
/// "admin" identity over any Connection and returns the reply text.
class AdminClient {
 public:
  AdminClient(std::unique_ptr<Connection> connection, Credential credential);

  /// One command round trip. Returns the reply line(s) ("ok ..." or
  /// "err ..."). Throws TransportError on channel failure, ProtocolError
  /// when the reply fails verification.
  std::string call(const std::string& line);

 private:
  std::unique_ptr<Connection> connection_;
  Credential credential_;
  ChannelKey key_;  // credential_'s envelope key
  SequenceSource seq_;
  SequenceTracker server_seq_;
};

class JobRunner {
 public:
  /// Builds a JobSpec for the admin `submit` command; the returned spec's
  /// server.job_id is overwritten with the submitted job id.
  using Blueprint = std::function<JobSpec(const std::string& job_id)>;

  /// `site_pool` is the shared participant registry every hosted job is
  /// born with: per-site credentials plus the "server" channel identity.
  /// An "admin" entry, when present, enables the admin API for that
  /// identity (absent = admin frames are rejected as unknown participants).
  explicit JobRunner(std::map<std::string, Credential> site_pool);
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Registers the job and admits it immediately when compute capacity
  /// allows (otherwise it queues FIFO). Returns the job id. Throws typed
  /// ConfigError on an empty or duplicate id — the registry is what makes
  /// job ids actually unique in a process.
  std::string submit(JobSpec spec);

  /// Registers a named spec factory for the admin `submit` command.
  void register_blueprint(std::string name, Blueprint blueprint);

  /// The job's server. Throws ConfigError for an unknown job or one still
  /// queued (no server exists yet — use JobSpec::configure for pre-traffic
  /// setup).
  FederatedServer& server(const std::string& job_id);

  /// Registry views. Thread-safe; each status is a snapshot.
  std::vector<JobStatus> list() const;
  JobStatus status(const std::string& job_id) const;  // ConfigError unknown

  /// Aborts a running job (forwards to its server) or cancels a queued one
  /// before it ever gets a server. Returns false for unknown or already
  /// terminal jobs.
  bool abort(const std::string& job_id, const std::string& reason);

  /// Blocks until the job leaves the queue (its server exists). Returns
  /// false on timeout or when the job was cancelled while queued.
  bool wait_until_running(const std::string& job_id, std::int64_t timeout_ms);
  /// Blocks until every registered job is terminal. Returns false on
  /// timeout.
  bool wait_all(std::int64_t timeout_ms);

  /// Transport entry point: routes each sealed frame to the job its
  /// envelope names (admin frames to the admin handler). Frames bound to
  /// no hosted job, or to none at all, are rejected with the typed
  /// ErrorCode::kWrongJob; frames for a queued job get kRetryable until it
  /// is admitted. The callable must not outlive the runner.
  AsyncDispatcher async_router();

  /// Parses and executes one admin command line; returns the reply text.
  /// Public so harnesses can drive the console without a transport.
  std::string admin_execute(const std::string& line);

 private:
  struct Job {
    std::string id;
    JobSpec spec;  // aggregator/model moved out when the server starts
    std::int64_t slots = 1;
    JobState phase = JobState::kQueued;  // kFinished/kAborted only for
                                         // cancelled-while-queued; a live
                                         // server owns its terminal state
    bool terminal = false;               // kEndRun observed
    bool routable = false;               // configure hook done; frames may
                                         // dispatch (see start_jobs)
    bool starting = false;               // picked, slots held; its server is
                                         // being built outside mu_
    std::optional<std::string> pending_abort;  // abort while starting
    std::string cancel_reason;           // cancelled-while-queued
    std::unique_ptr<FederatedServer> server;
  };

  /// Picks queued jobs (FIFO) while the compute budget allows, marks them
  /// starting and holds their slots. The caller must hand them to
  /// start_jobs() once mu_ is released.
  [[nodiscard]] std::vector<Job*> schedule_locked() CF_REQUIRES(mu_);
  /// Builds each picked job's server, installs it, runs the configure hook
  /// and marks the job routable. The constructor (journal replay) and the
  /// hook (observer/filter registration) take the new server's lock, and
  /// once its ticker is live it can fire kEndRun, whose on_job_end handler
  /// takes mu_. Holding mu_ across either would invert the lock order; only
  /// the install and the routable flag run under it.
  void start_jobs(std::vector<Job*> jobs) CF_EXCLUDES(mu_);
  /// kEndRun observer: frees the job's slots and admits successors. Runs
  /// under the finishing server's lock — must never call back into it.
  void on_job_end(const std::string& job_id);
  Job* find_locked(const std::string& job_id) const CF_REQUIRES(mu_);
  /// Status split in two because a server query takes that server's lock,
  /// which must never nest inside mu_ (on_job_end nests them the other way
  /// round): seed under mu_, then finish against the server outside it.
  JobStatus seed_status_locked(const Job& job) const CF_REQUIRES(mu_);
  void fill_from_server(JobStatus& status, FederatedServer* server) const;

  /// Routing decision resolved under mu_, executed outside it (dispatching
  /// into a server takes that server's lock; see lock-order note above).
  struct Route {
    AsyncDispatcher dispatch;         // set: forward to the job's server
    std::vector<std::uint8_t> reply;  // set: answer directly (errors)
  };
  Route resolve(const std::vector<std::uint8_t>& request);
  std::vector<std::uint8_t> handle_admin(const std::vector<std::uint8_t>& request);
  std::vector<std::uint8_t> seal_reply(const std::string& sender, const ChannelKey& key,
                                       const std::string& job_id,
                                       const std::vector<std::uint8_t>& body);

  std::map<std::string, Credential> site_pool_;
  /// site_pool_'s envelope keys, derived once.
  std::map<std::string, ChannelKey> keys_;
  /// One outbound "server" sequence pool shared with every hosted server,
  /// so router errors and server replies to the same client stay strictly
  /// increasing (the client's replay check demands it).
  std::shared_ptr<SequencePool> sequences_ = std::make_shared<SequencePool>();
  SequenceTracker admin_inbound_;  // internally synchronized

  mutable core::Mutex mu_;
  mutable core::CondVar cv_;
  /// Submission order; jobs are never erased (a terminal job keeps its id
  /// reserved and its server queryable for results).
  std::vector<std::unique_ptr<Job>> jobs_ CF_GUARDED_BY(mu_);
  std::map<std::string, Blueprint> blueprints_ CF_GUARDED_BY(mu_);
};

}  // namespace cppflare::flare
