// SimulatorRunner — run a whole federation in one process.
//
// The C++ analogue of NVFlare's SimulatorRunner used throughout the paper's
// demonstration (Fig. 3): provisions N sites, builds the server with a
// ScatterAndGather workflow, runs one FederatedClient per site — the same
// driver a deployed site runs — with every site on one worker pool, runs E
// rounds and returns the final global model plus per-round aggregated
// metrics. The transport is in-process by default or loopback TCP
// (`use_tcp`) to exercise the real wire path. A `FaultPlanner` can wrap any
// site's connections in the fault-injection decorator (flare/faults.h), a
// `PoisonPlanner` can make any site adversarial at the model level
// (flare/poison.h), and `resume` restarts a killed run from its persisted
// checkpoint.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backoff.h"
#include "core/trace.h"
#include "core/wal.h"
#include "flare/aggregator.h"
#include "flare/client.h"
#include "flare/faults.h"
#include "flare/jobs.h"
#include "flare/learner.h"
#include "flare/persistor.h"
#include "flare/poison.h"
#include "flare/server.h"

namespace cppflare::flare {

/// Secure aggregation for the simulated federation (DESIGN.md §14): every
/// site's contribution is quantized and pairwise-masked before it leaves
/// the client, the server aggregates blind, and masked rounds that lose
/// sites detour into the bounded unmask-recovery phase instead of
/// publishing a corrupted model.
struct SimSecureAggConfig {
  bool enabled = false;
  /// Root seed the pairwise mask keys derive from; every site derives the
  /// same pair keys from it, standing in for the provisioning ceremony.
  std::uint64_t dealer_seed = 0x5ec5eed;
  /// Fixed-point quantization precision (fractional bits) for the masked
  /// modular arithmetic. Valid range [1, 30].
  std::int64_t frac_bits = 16;
  /// Per-wave budget for the server's mask-recovery phase.
  std::int64_t recovery_deadline_ms = 5000;
  /// Demotion-cascade bound before the server aborts recovery.
  std::int64_t max_recovery_waves = 4;
  /// Weighted FedAvg under masking: masks only cancel through an unweighted
  /// sum, so server-side sample weighting is rejected (ConfigError). With
  /// pre_scale each site instead scales its own update by
  /// num_samples * num_sites / total_samples before masking, making the
  /// server's uniform masked mean equal the weighted mean.
  bool pre_scale = false;
  /// Federation-wide sample count (required > 0 when pre_scale is set;
  /// known at provisioning time in the clinical setting).
  std::int64_t total_samples = 0;
};

/// Client-side differential privacy: every outbound update is norm-clipped
/// to clip_norm and perturbed with N(0, (noise_multiplier*clip_norm)^2)
/// noise; the runner accounts the cumulative (epsilon, delta) spend (see
/// DpAccountant) into SimulationResult and the server's metric registry.
struct SimDpConfig {
  bool enabled = false;
  double clip_norm = 1.0;
  /// Noise-to-sensitivity ratio z; 0 disables noise (infinite epsilon).
  double noise_multiplier = 0.0;
  double delta = 1e-5;
  std::uint64_t seed = 0xd9;
};

struct SimulatorConfig {
  std::string job_id = "simulator_server";
  std::int64_t num_clients = 8;
  std::int64_t num_rounds = 10;
  bool use_tcp = false;
  /// Provisioning seed (tokens/secrets derive from it).
  std::uint64_t seed = 7;
  /// When non-empty, the global model is persisted here every round.
  std::string persist_path;
  /// Resume a killed run: load the checkpoint at persist_path (when one
  /// exists) and continue from the round after the last completed one.
  bool resume = false;
  /// Intra-round durability (DESIGN.md §15): journal every round mutation
  /// to a write-ahead log so a killed coordinator resumes *within* the
  /// round instead of replaying it. On start the journal is replayed and
  /// reconciled against the checkpoint (combine with `resume`).
  bool journal = false;
  /// Journal location; empty derives `persist_path + ".journal"`.
  std::string journal_path;
  /// When the journal fsyncs (see core/wal.h): every record, once per
  /// round (default), or never.
  core::WalSyncPolicy journal_sync = core::WalSyncPolicy::kEveryRound;
  /// Partial participation: sample this many clients per round (0 = all).
  std::int64_t clients_per_round = 0;
  /// Graceful degradation (0 = require every client): rounds that hit
  /// round_deadline_ms close with at least this many contributions.
  std::int64_t min_clients = 0;
  std::int64_t round_deadline_ms = 0;
  /// Evict sites unseen for this long from the round quorum (0 = never).
  std::int64_t liveness_timeout_ms = 0;
  /// Client-side retry schedule for transport failures (first retry of an
  /// exchange is immediate; repeats back off exponentially).
  core::BackoffPolicy client_retry = {10, 2000, 2.0, 5, 0.2, true};
  /// Long-poll budget each client sends with get_task: the server parks the
  /// poll until a task is ready or this much time passed.
  std::int64_t long_poll_ms = 10000;
  /// Workers in the pool that runs every site's client as continuations
  /// (0 = one per site). A waiting site holds no worker in-process (its
  /// long-poll parks server-side), so 256 sites run on 8 workers. With
  /// use_tcp the pool has one worker per site whatever this says: a TCP
  /// send holds its worker until the reply arrives.
  std::int64_t site_workers = 0;
  /// Abort if the run has not finished after this long.
  std::int64_t timeout_ms = 30 * 60 * 1000;
  /// Server-side update validation (see flare/validator.h). Defaults keep
  /// screening on with the norm-outlier pass off.
  ValidatorConfig validator;
  /// Cross-round quarantine/parole policy (off by default).
  ReputationConfig reputation;
  /// Secure aggregation with dropout recovery (off by default). When
  /// enabled the runner substitutes a MaskedFedAvgAggregator (unless the
  /// provided aggregator already supports mask recovery), masks every
  /// site's outbound updates, and installs the unmask provider the server's
  /// recovery phase queries. Incompatible with clients_per_round sampling.
  SimSecureAggConfig secure_agg;
  /// Client-side differential privacy (off by default). Composes with
  /// secure_agg: clip + noise run before the mask filter.
  SimDpConfig dp;
  /// Per-site compute-thread budget for the shared kernel pool
  /// (core/parallel.h). > 0 forces that budget; 0 divides the machine between
  /// site workers and kernels (max(1, hw_threads - pool size + 1)), unless
  /// the budget was already pinned by CPPFLARE_COMPUTE_THREADS or an explicit
  /// set_compute_threads call; < 0 leaves the budget completely untouched.
  std::int64_t compute_threads = -1;
  /// Observability: start the process-wide span tracer for this run. The
  /// trace never perturbs training (a traced run is memcmp-equal to an
  /// untraced one); budget is ≤5% of clean-round throughput (BENCH_obs.json).
  bool trace = false;
  /// When tracing, export the timeline here as Chrome `about:tracing` JSON
  /// when the run ends (open in chrome://tracing or ui.perfetto.dev).
  std::string trace_json_path;
  /// Ring-buffer capacity in events while tracing (oldest overwritten).
  std::size_t trace_capacity = 1 << 16;
};

/// `metrics` — the server's MetricRegistry snapshot — is the telemetry
/// source of truth; new telemetry is read from it (names in
/// flare/observability.h metric_names), not grown as fields here.
/// `history` remains as the per-round view (it is also what CPK3
/// checkpoints persist); the legacy duplicated accessors were removed in
/// the multi-job coordinator PR.
struct [[nodiscard]] SimulationResult {
  nn::StateDict final_model;
  std::vector<RoundMetrics> history;
  double wall_seconds = 0.0;
  /// Snapshot of the server's metric registry when the run ended — taken on
  /// success *and* abort, so mid-round detail survives an aborted run.
  core::MetricSnapshot metrics;
  /// The "site.<name>.<metric>" gauges from `metrics`: the last state each
  /// site reported before the run ended (recorded before validation, so an
  /// abort caused by mass rejection still shows what every site sent).
  /// Derived from `metrics` on demand — replaces the stored duplicate field
  /// the observability PR deprecated.
  std::map<std::string, double> site_metrics() const;
  /// True when the server aborted the run (deadline below min_clients or an
  /// explicit abort); final_model/history reflect the last completed round.
  bool aborted = false;
  std::string abort_reason;
  /// Machine-checkable abort classification (kNone unless aborted).
  AbortCode abort_code = AbortCode::kNone;
  /// Cumulative differential-privacy spend over the published rounds when
  /// dp.enabled (0 otherwise). epsilon is +inf when noise_multiplier == 0:
  /// clipping alone offers no DP guarantee.
  double dp_epsilon_spent = 0.0;
  double dp_delta = 0.0;
  /// Sites whose clients failed (e.g. retry budget exhausted, learner threw)
  /// while the run still completed without them, in site-index order.
  std::vector<std::string> failed_sites;
  /// Round the server resumed from (-1 for a fresh run).
  std::int64_t resumed_from_round = -1;
  /// Sites still quarantined when the run ended.
  std::vector<std::string> quarantined_sites;
};

class SimulatorRunner {
 public:
  /// Builds the learner for a site; index is 0-based, name is "site-<i+1>".
  using LearnerFactory = std::function<std::shared_ptr<Learner>(
      std::int64_t site_index, const std::string& site_name)>;
  /// Optional hook to customize each site's protocol session (e.g. add
  /// outbound filters).
  using ClientCustomizer = std::function<void(SiteSession&)>;
  /// Decides the fault plan for one connection attempt: `incarnation` is
  /// 0 for a site's first connection and increments on every reconnect.
  /// Return std::nullopt for a clean connection.
  using FaultPlanner = std::function<std::optional<FaultPlan>(
      std::int64_t site_index, const std::string& site_name,
      std::int64_t incarnation)>;
  /// Decides whether a site is adversarial: return a PoisonPlan to append a
  /// PoisonFilter (flare/poison.h) to that site's outbound filter chain,
  /// std::nullopt for an honest site.
  using PoisonPlanner = std::function<std::optional<PoisonPlan>(
      std::int64_t site_index, const std::string& site_name)>;

  SimulatorRunner(SimulatorConfig config, nn::StateDict initial_model,
                  std::unique_ptr<Aggregator> aggregator, LearnerFactory factory);

  void set_client_customizer(ClientCustomizer customizer) {
    customizer_ = std::move(customizer);
  }
  void set_fault_planner(FaultPlanner planner) {
    fault_planner_ = std::move(planner);
  }
  void set_poison_planner(PoisonPlanner planner) {
    poison_planner_ = std::move(planner);
  }

  /// Access the server before run() to add inbound filters or subscribe to
  /// events. Valid for the runner's lifetime.
  FederatedServer& server() { return *server_; }

  /// The job registry hosting this run (exactly one job, named
  /// SimulatorConfig::job_id). Exposed so harnesses can drive the admin
  /// console against a simulated federation.
  JobRunner& jobs() { return *job_runner_; }

  /// Runs the federation to completion (or abort — see
  /// SimulationResult::aborted). Throws only when the run can make no
  /// progress at all: every client failed (the lowest-index site's failure
  /// is rethrown with its type, as soon as the last site ends), or the
  /// timeout expired without the server finishing or aborting.
  SimulationResult run();

 private:
  /// Per-site setup: the customizer, then DP and pre-scaling, then poison,
  /// and the mask filter (with its unmask provider) last.
  void setup_site(std::int64_t index, SiteSession& session) const;
  /// Snapshot server state into the result, close out tracing, log the
  /// outcome.
  SimulationResult finalize(std::chrono::steady_clock::time_point start,
                            std::int64_t trace_t0,
                            std::vector<std::string> failed_sites);

  SimulatorConfig config_;
  LearnerFactory factory_;
  ClientCustomizer customizer_;
  FaultPlanner fault_planner_;
  PoisonPlanner poison_planner_;
  std::map<std::string, Credential> registry_;
  /// The client sites, "site-1".."site-N": also the mask participant list
  /// (the registry's "server" credential is a channel identity, not a
  /// masking peer — masks against a non-contributing name never cancel).
  std::vector<std::string> site_names_;
  /// Hosts the run's single job (DESIGN.md §16) — the simulator goes
  /// through the same job registry and frame router as a multi-job
  /// deployment, so every simulator test also exercises the routed path.
  std::unique_ptr<JobRunner> job_runner_;
  /// The job's server, owned by job_runner_ (jobs are never erased, so the
  /// pointer is stable for the runner's lifetime).
  FederatedServer* server_ = nullptr;
  std::int64_t resumed_from_round_ = -1;
};

}  // namespace cppflare::flare
