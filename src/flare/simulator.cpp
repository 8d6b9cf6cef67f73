#include "flare/simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/thread_pool.h"
#include "core/trace.h"
#include "flare/observability.h"
#include "flare/secure_agg.h"
#include "flare/tcp.h"

#define CPPFLARE_LOG_COMPONENT "SimulatorRunner"

namespace cppflare::flare {

namespace {

/// Appends the privacy filters a site's outbound chain gets from the
/// simulator config — DP (clip + noise) first, then the pre-scaling that
/// stands in for server-side sample weighting under masking — and returns
/// the site's mask filter (null when secure_agg is off). The caller adds
/// the masker as the *last* filter, so whatever else touches the update
/// (poisoning included) happens before it is hidden under masks.
std::shared_ptr<SecureAggMaskFilter> add_privacy_filters(
    const SimulatorConfig& config, std::int64_t index, const std::string& name,
    const std::vector<std::string>& all_sites, FilterChain& chain) {
  if (config.dp.enabled) {
    chain.add(std::make_shared<DpGaussianFilter>(
        config.dp.clip_norm, config.dp.noise_multiplier,
        config.dp.seed ^ (0x9e3779b97f4a7c15ull *
                          static_cast<std::uint64_t>(index + 1))));
  }
  if (!config.secure_agg.enabled) return nullptr;
  if (config.secure_agg.pre_scale) {
    chain.add(std::make_shared<PreScaleFilter>(
        config.num_clients, config.secure_agg.total_samples));
  }
  return make_secure_agg_mask_filter(config.job_id, config.secure_agg.dealer_seed,
                                     name, all_sites,
                                     config.secure_agg.frac_bits);
}

/// Completion state shared by all multiplexed sites. `stopping` is the
/// teardown handshake: once the runner sets it (under mu), site callbacks
/// stop posting continuations to the worker pool, which makes destroying
/// the pool safe even if a stray parked reply arrives late.
struct MultiplexRun {
  core::Mutex mu;
  core::CondVar cv;
  std::int64_t remaining CF_GUARDED_BY(mu) = 0;
  bool stopping CF_GUARDED_BY(mu) = false;
  std::vector<std::string> failed CF_GUARDED_BY(mu);
};

/// One site of the multiplexed simulator: an event-driven state machine
/// (register -> long-poll -> train -> submit -> long-poll -> ... -> stop)
/// over the server's async dispatcher. A site never owns a thread; each
/// response is posted as a continuation to the shared worker pool, and
/// while the site waits for a task its get_task is *parked server-side*,
/// occupying no worker at all. That is what lets 256 sites run on 8
/// workers: at any instant only the sites actually training or decoding
/// hold a thread.
///
/// Threading: a site has exactly one exchange outstanding at a time, and
/// each continuation schedules the next, so all mutable state below is
/// accessed serially; the pool's queue mutex provides the happens-before
/// edges between consecutive continuations.
class SimSite : public std::enable_shared_from_this<SimSite> {
 public:
  SimSite(Credential credential, std::shared_ptr<Learner> learner,
          AsyncDispatcher dispatch, core::ThreadPool* pool,
          std::shared_ptr<MultiplexRun> run, std::string job_id,
          std::int64_t long_poll_ms, FilterChain filters,
          std::shared_ptr<SecureAggMaskFilter> masker)
      : credential_(std::move(credential)),
        learner_(std::move(learner)),
        dispatch_(std::move(dispatch)),
        pool_(pool),
        run_(std::move(run)),
        job_id_(std::move(job_id)),
        long_poll_ms_(long_poll_ms),
        filters_(std::move(filters)),
        masker_(std::move(masker)) {}

  void start() {
    auto self = shared_from_this();
    pool_->post([self] { self->send_step(); });
  }

 private:
  enum class Step { kRegister, kPoll, kSubmit, kUnmask };

  /// Seals and dispatches the frame for the current step. The respond
  /// callback only enqueues; all real work happens on a pool worker.
  void send_step() {
    std::vector<std::uint8_t> frame;
    switch (step_) {
      case Step::kRegister:
        frame = pack(RegisterRequest{credential_.name, credential_.token});
        break;
      case Step::kPoll:
        frame = pack(GetTaskRequest{session_id_, long_poll_ms_});
        break;
      case Step::kSubmit:
        frame = pack(
            SubmitUpdateRequest{session_id_, pending_round_, pending_update_});
        break;
      case Step::kUnmask:
        frame = pack(UnmaskResponse{session_id_, unmask_round_, unmask_wave_,
                                    unmask_share_});
        break;
    }
    const std::vector<std::uint8_t> sealed_frame = seal(
        credential_.name, credential_.secret, seq_.next(), frame, job_id_);
    // Free the unsealed frame before the exchange: the in-process server
    // handles it on this thread.
    std::vector<std::uint8_t>().swap(frame);
    auto self = shared_from_this();
    dispatch_(sealed_frame, [self](std::vector<std::uint8_t> response) {
      self->enqueue(std::move(response));
    });
  }

  /// Called from whatever thread completes the exchange (a pool worker for
  /// immediate replies, the server's ticker or another site's worker for
  /// parked ones). Posts the continuation unless the run is tearing down.
  void enqueue(std::vector<std::uint8_t> response) {
    core::MutexLock lock(run_->mu);
    if (run_->stopping) return;  // runner gave up on us; pool may be dying
    auto self = shared_from_this();
    // std::function needs a copyable callable, so the buffer is captured by
    // value (moved in; the pool's enqueue copies once).
    pool_->post([self, buf = std::move(response)] { self->resume(buf); });
  }

  void resume(const std::vector<std::uint8_t>& response) {
    try {
      const Envelope env = open(response, credential_.secret);
      if (env.sender != "server") {
        throw ProtocolError("response not from server but '" + env.sender + "'");
      }
      server_seq_.check_and_advance(env.sender, env.sequence);
      if (peek_type(env.payload) == MsgType::kError) {
        handle_error(decode_error(env.payload));
        return;
      }
      retries_ = 0;
      switch (step_) {
        case Step::kRegister: {
          const RegisterAck ack = decode_register_ack(env.payload);
          if (!ack.accepted) {
            throw ProtocolError("registration rejected for " +
                                credential_.name + ": " + ack.message);
          }
          session_id_ = ack.session_id;
          step_ = after_register_;
          after_register_ = Step::kPoll;
          break;
        }
        case Step::kPoll: {
          if (peek_type(env.payload) == MsgType::kUnmaskRequest) {
            // Mask-recovery phase (DESIGN.md §14): reveal the sum of our
            // pairwise masks against the dropped set so the server can
            // finish the frozen round.
            const UnmaskRequest req = decode_unmask_request(env.payload);
            if (!masker_) {
              throw ProtocolError(credential_.name +
                                  ": unmask request but masking is off");
            }
            {
              CF_TRACE_SPAN_SITE("client.unmask", credential_.name, req.round);
              unmask_share_ = masker_->unmask_share(req.dropped, req.round,
                                                    req.skeleton.data());
            }
            unmask_round_ = req.round;
            unmask_wave_ = req.wave;
            step_ = Step::kUnmask;
            break;
          }
          const TaskMessage task = decode_task(env.payload);
          if (task.task == TaskKind::kStop) {
            finish({});
            return;
          }
          // kNone: the long-poll budget expired (or this round sampled us
          // out) — re-poll immediately; the server parks us again.
          if (task.task == TaskKind::kTrain) {
            train(task);
            step_ = Step::kSubmit;
          }
          break;
        }
        case Step::kSubmit: {
          const SubmitAck ack = decode_submit_ack(env.payload);
          if (!ack.accepted && ack.message != kDuplicateContribution) {
            LOG(warn)
                .msg("contribution rejected:")
                .msg(ack.message)
                .kv("site", credential_.name)
                .kv("reason", reject_reason_name(ack.reason));
          }
          step_ = Step::kPoll;
          break;
        }
        case Step::kUnmask: {
          const SubmitAck ack = decode_submit_ack(env.payload);
          if (!ack.accepted) {
            // Stale wave / recovery already resolved — harmless.
            LOG(warn)
                .msg("unmask share not accepted:")
                .msg(ack.message)
                .kv("site", credential_.name)
                .kv("round", unmask_round_)
                .kv("wave", unmask_wave_);
          }
          step_ = Step::kPoll;
          break;
        }
      }
      send_step();
    } catch (const std::exception& e) {
      finish(e.what());
    }
  }

  /// In-process transport: retryable faults cannot occur here (the fault
  /// decorators are excluded in multiplexed mode), but honor the protocol
  /// anyway — bounded resend for kRetryable, idempotent re-registration
  /// (resuming the interrupted step) for kUnknownSession.
  void handle_error(const ErrorMessage& err) {
    if (err.code == ErrorCode::kRetryable && ++retries_ <= 5) {
      send_step();
      return;
    }
    if (err.code == ErrorCode::kUnknownSession && ++reregistrations_ <= 3) {
      after_register_ = step_ == Step::kRegister ? Step::kPoll : step_;
      step_ = Step::kRegister;
      send_step();
      return;
    }
    finish(credential_.name + ": server error: " + err.message);
  }

  void train(const TaskMessage& task) {
    FLContext ctx;
    ctx.job_id = job_id_;
    ctx.site_name = credential_.name;
    ctx.current_round = task.round;
    ctx.total_rounds = task.total_rounds;
    {
      CF_TRACE_SPAN_SITE("client.train", credential_.name, task.round);
      pending_update_ = learner_->train(task.payload, ctx);
    }
    if (!pending_update_.has_meta(Dxo::kMetaRound)) {
      pending_update_.set_meta_int(Dxo::kMetaRound, task.round);
    }
    // Same order as FederatedClient::run(): stamp the round, then the
    // outbound privacy chain (DP noise, pre-scaling, masking last).
    filters_.process(pending_update_, ctx);
    pending_round_ = task.round;
  }

  void finish(const std::string& error) {
    if (!error.empty()) {
      LOG(error).msg("site failed:").msg(error).kv("site", credential_.name);
    }
    core::MutexLock lock(run_->mu);
    if (!error.empty()) run_->failed.push_back(credential_.name);
    run_->remaining -= 1;
    run_->cv.notify_all();
  }

  Credential credential_;
  std::shared_ptr<Learner> learner_;
  AsyncDispatcher dispatch_;
  core::ThreadPool* pool_;
  std::shared_ptr<MultiplexRun> run_;
  std::string job_id_;
  std::int64_t long_poll_ms_;
  FilterChain filters_;
  std::shared_ptr<SecureAggMaskFilter> masker_;

  Step step_ = Step::kRegister;
  Step after_register_ = Step::kPoll;
  SequenceSource seq_;
  SequenceTracker server_seq_;
  std::string session_id_;
  std::int64_t pending_round_ = 0;
  Dxo pending_update_;
  std::int64_t unmask_round_ = 0;
  std::int64_t unmask_wave_ = 0;
  Dxo unmask_share_;
  std::int64_t retries_ = 0;
  std::int64_t reregistrations_ = 0;
};

}  // namespace

std::map<std::string, double> SimulationResult::site_metrics() const {
  return metrics.gauges_with_prefix(metric_names::kSitePrefix);
}

SimulatorRunner::SimulatorRunner(SimulatorConfig config, nn::StateDict initial_model,
                                 std::unique_ptr<Aggregator> aggregator,
                                 LearnerFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {
  if (!factory_) throw Error("SimulatorRunner: learner factory required");
  const Provisioner provisioner(config_.job_id, config_.seed);
  registry_ = provisioner.provision_sites(config_.num_clients);
  if (config_.secure_agg.enabled) {
    if (config_.secure_agg.pre_scale && config_.secure_agg.total_samples <= 0) {
      throw ConfigError(
          "SimulatorRunner: secure_agg.pre_scale requires total_samples > 0");
    }
    if (const auto* fedavg = dynamic_cast<FedAvgAggregator*>(aggregator.get());
        fedavg && fedavg->weighted() && !config_.secure_agg.pre_scale) {
      throw ConfigError(
          "SimulatorRunner: masked aggregation cannot honor server-side "
          "sample-count weighting (pairwise masks only cancel through an "
          "unweighted sum); enable secure_agg.pre_scale with total_samples "
          "for the client-side weighted path");
    }
    // Substitute the masked aggregator unless the caller already supplied a
    // recovery-capable one.
    if (!dynamic_cast<MaskRecoveryCapable*>(aggregator.get())) {
      aggregator = std::make_unique<MaskedFedAvgAggregator>(
          config_.secure_agg.frac_bits);
    }
  }
  if (config_.resume && !config_.persist_path.empty()) {
    // The runner's job scheduler loads the checkpoint itself when it admits
    // the job; this peek only records where the run resumed from for the
    // result (and logs it before any training happens).
    if (const std::optional<Checkpoint> cpk =
            ModelPersistor(config_.persist_path).load()) {
      resumed_from_round_ = cpk->round;
      LOG(info)
          .msg("Resuming job " + cpk->job_id)
          .kv("completed_round", cpk->round);
    } else {
      LOG(info)
          .msg("resume requested but no checkpoint; starting fresh")
          .kv("path", config_.persist_path);
    }
  }
  ServerConfig server_config;
  server_config.job_id = config_.job_id;
  server_config.num_rounds = config_.num_rounds;
  server_config.min_clients =
      config_.min_clients > 0 ? config_.min_clients : config_.num_clients;
  server_config.expected_clients = config_.num_clients;
  server_config.clients_per_round = config_.clients_per_round;
  server_config.sampling_seed = config_.seed ^ 0xc11e;
  server_config.round_deadline_ms = config_.round_deadline_ms;
  server_config.liveness_timeout_ms = config_.liveness_timeout_ms;
  server_config.validator = config_.validator;
  server_config.reputation = config_.reputation;
  server_config.secure_agg.enabled = config_.secure_agg.enabled;
  server_config.secure_agg.recovery_deadline_ms =
      config_.secure_agg.recovery_deadline_ms;
  server_config.secure_agg.max_recovery_waves =
      config_.secure_agg.max_recovery_waves;
  if (config_.journal && config_.journal_path.empty() &&
      config_.persist_path.empty()) {
    throw ConfigError(
        "SimulatorRunner: journal enabled with neither journal_path nor "
        "persist_path to derive it from");
  }
  // The server is hosted through the job registry (DESIGN.md §16): the
  // runner owns construction (lint rule R14), durability wiring, and the
  // frame router every transport below dispatches into.
  JobSpec spec;
  spec.server = std::move(server_config);
  spec.initial_model = std::move(initial_model);
  spec.aggregator = std::move(aggregator);
  spec.persist_path = config_.persist_path;
  spec.resume = config_.resume;
  spec.journal = config_.journal;
  spec.journal_path = config_.journal_path;
  spec.journal_sync = config_.journal_sync;
  if (config_.dp.enabled) {
    // Surface the accountant's cumulative spend as a gauge after every
    // published round (validated here so a bad delta fails at construction,
    // not mid-run inside an observer).
    const DpAccountant accountant(config_.dp.noise_multiplier, config_.dp.delta);
    spec.configure = [accountant](FederatedServer& server) {
      core::MetricRegistry* metrics = &server.metrics_registry();
      server.add_round_observer(
          [accountant, metrics](std::int64_t round, const nn::StateDict&,
                                const RoundMetrics&) {
            metrics->gauge(metric_names::kDpEpsilonSpent)
                .set(accountant.epsilon_after(round + 1));
          });
    };
  }
  job_runner_ = std::make_unique<JobRunner>(registry_);
  job_runner_->submit(std::move(spec));
  // A single one-slot job always fits the compute budget, so submit admits
  // it synchronously and the server exists from here on.
  server_ = &job_runner_->server(config_.job_id);
}

SimulationResult SimulatorRunner::run() {
  const auto start = std::chrono::steady_clock::now();
  if (config_.trace) core::Tracer::instance().start(config_.trace_capacity);
  const std::int64_t trace_t0 = core::Tracer::instance().now_ns();
  LOG(info).msg("Create the simulate clients.");

  // Divide the machine between site workers and kernel threads before any
  // kernel runs, so every site's training shares one budgeted compute pool
  // instead of each site oversubscribing the host. In multiplexed mode the
  // site-thread count is the pool size, not the site count.
  if (config_.compute_threads > 0) {
    core::set_compute_threads(
        static_cast<std::size_t>(config_.compute_threads));
  } else if (config_.compute_threads == 0) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t sites = static_cast<std::size_t>(std::max<std::int64_t>(
        1, config_.site_workers > 0 ? config_.site_workers
                                    : config_.num_clients));
    const std::size_t per_site = hw > sites ? hw - sites + 1 : 1;
    core::set_compute_threads_if_default(per_site);
  }
  LOG(info)
      .msg("Compute budget")
      .kv("site_workers", config_.site_workers > 0 ? config_.site_workers
                                                   : config_.num_clients)
      .kv("compute_threads", static_cast<std::int64_t>(core::compute_threads()));

  if (config_.site_workers > 0) {
    if (config_.use_tcp) {
      throw ConfigError(
          "SimulatorRunner: site_workers (multiplexed mode) is in-process "
          "only; use_tcp requires the thread-per-site mode");
    }
    if (fault_planner_ || poison_planner_ || customizer_) {
      throw ConfigError(
          "SimulatorRunner: fault/poison planners and client customizers "
          "attach to per-site clients and are not supported with "
          "site_workers; use the thread-per-site mode");
    }
    return run_multiplexed(start, trace_t0);
  }

  std::unique_ptr<TcpServer> tcp_server;
  if (config_.use_tcp) {
    tcp_server = std::make_unique<TcpServer>(0, job_runner_->async_router());
    LOG(info)
        .msg("TCP transport listening")
        .kv("addr", "127.0.0.1")
        .kv("port", static_cast<std::int64_t>(tcp_server->port()));
  }

  // Each site gets a ConnectionFactory so the client can reconnect after a
  // transport failure. `incarnation` counts connections per site (0 = first),
  // letting a FaultPlanner hand out, say, a lossy first connection and a
  // clean replacement.
  auto make_factory = [&, this](std::int64_t index,
                                const std::string& name) -> ConnectionFactory {
    auto incarnation = std::make_shared<std::atomic<std::int64_t>>(0);
    return [this, &tcp_server, index, name,
            incarnation]() -> std::unique_ptr<Connection> {
      std::unique_ptr<Connection> conn;
      if (config_.use_tcp) {
        conn = std::make_unique<TcpConnection>("127.0.0.1", tcp_server->port());
      } else {
        // Async in-process channel so the server can *park* long-polls from
        // in-process clients too, instead of answering kNone immediately.
        // Routed through the job registry like every other transport.
        conn = std::make_unique<AsyncInProcConnection>(
            job_runner_->async_router());
      }
      const std::int64_t n = incarnation->fetch_add(1);
      if (fault_planner_) {
        if (const std::optional<FaultPlan> plan = fault_planner_(index, name, n)) {
          conn = std::make_unique<FaultyConnection>(std::move(conn), *plan);
        }
      }
      return conn;
    };
  };

  // The mask participant list is exactly the client sites: the registry's
  // "server" credential is a channel identity, not a masking peer — masks
  // against a non-contributing name would never cancel.
  std::vector<std::string> site_names;
  site_names.reserve(static_cast<std::size_t>(config_.num_clients));
  for (std::int64_t i = 0; i < config_.num_clients; ++i) {
    site_names.push_back("site-" + std::to_string(i + 1));
  }

  std::vector<std::unique_ptr<FederatedClient>> clients;
  for (std::int64_t i = 0; i < config_.num_clients; ++i) {
    const std::string name = "site-" + std::to_string(i + 1);
    ClientConfig client_config;
    client_config.job_id = config_.job_id;
    client_config.max_idle_ms = config_.timeout_ms;
    client_config.long_poll_ms = config_.long_poll_ms;
    client_config.retry = config_.client_retry;
    auto client = std::make_unique<FederatedClient>(
        client_config, registry_.at(name), make_factory(i, name), factory_(i, name));
    if (customizer_) customizer_(*client);
    const std::shared_ptr<SecureAggMaskFilter> masker = add_privacy_filters(
        config_, i, name, site_names, client->outbound_filters());
    // The poison filter goes in *after* the customizer's filters (privacy,
    // clipping): an adversarial site corrupts what it would actually have
    // sent, and its poison is not accidentally clipped back to sanity. The
    // mask filter goes in last of all — whatever the site sends, honest or
    // poisoned, is what gets hidden under masks.
    if (poison_planner_) {
      if (const std::optional<PoisonPlan> plan = poison_planner_(i, name)) {
        client->outbound_filters().add(std::make_shared<PoisonFilter>(*plan));
        LOG(warn).msg(name + " is ADVERSARIAL this run").kv("site", name);
      }
    }
    if (masker) {
      client->outbound_filters().add(masker);
      client->set_unmask_provider(
          [masker](const std::vector<std::string>& dropped, std::int64_t round,
                   const nn::StateDict& skeleton) {
            return masker->unmask_share(dropped, round, skeleton);
          });
    }
    clients.push_back(std::move(client));
  }

  // One worker per site, as SimulatorRunner multiplexes clients. A scoped
  // pool (not raw std::thread) so site workers are accounted for in the same
  // machine-division story as the compute pool above.
  std::vector<std::string> failed_sites;
  std::exception_ptr first_failure;
  {
    core::ThreadPool site_pool(clients.size());
    std::vector<std::future<void>> done;
    done.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      done.push_back(site_pool.submit([&, i] { clients[i]->run(); }));
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      try {
        done[i].get();
      } catch (...) {
        LOG(error).msg("client failed").kv("site", clients[i]->site_name());
        failed_sites.push_back(clients[i]->site_name());
        if (!first_failure) first_failure = std::current_exception();
      }
    }
  }
  const bool success = server_->wait_until_finished(config_.timeout_ms);
  if (tcp_server) tcp_server->stop();
  if (!success && !server_->aborted()) {
    // Nothing to salvage: the server neither finished nor aborted. Failed
    // clients are the likeliest cause — surface the first one.
    if (static_cast<std::int64_t>(failed_sites.size()) >= config_.num_clients &&
        first_failure) {
      std::rethrow_exception(first_failure);
    }
    if (first_failure) std::rethrow_exception(first_failure);
    throw Error("SimulatorRunner: run did not finish within timeout");
  }
  // A degraded but completed run (some clients failed, quorum still met) and
  // an aborted run both report through the result instead of throwing.
  return finalize(start, trace_t0, std::move(failed_sites));
}

SimulationResult SimulatorRunner::run_multiplexed(
    std::chrono::steady_clock::time_point start, std::int64_t trace_t0) {
  LOG(info)
      .msg("Multiplexed mode")
      .kv("sites", config_.num_clients)
      .kv("site_workers", config_.site_workers);
  auto run_state = std::make_shared<MultiplexRun>();
  {
    core::MutexLock lock(run_state->mu);
    run_state->remaining = config_.num_clients;
  }
  std::vector<std::string> failed_sites;
  bool timed_out = false;
  {
    core::ThreadPool pool(static_cast<std::size_t>(config_.site_workers));
    const std::int64_t long_poll =
        std::max<std::int64_t>(1, config_.long_poll_ms);
    // Client sites only — the registry's "server" entry is a channel
    // identity, not a masking peer (see run()).
    std::vector<std::string> site_names;
    site_names.reserve(static_cast<std::size_t>(config_.num_clients));
    for (std::int64_t i = 0; i < config_.num_clients; ++i) {
      site_names.push_back("site-" + std::to_string(i + 1));
    }
    std::vector<std::shared_ptr<SimSite>> sites;
    sites.reserve(static_cast<std::size_t>(config_.num_clients));
    for (std::int64_t i = 0; i < config_.num_clients; ++i) {
      const std::string name = "site-" + std::to_string(i + 1);
      FilterChain filters;
      std::shared_ptr<SecureAggMaskFilter> masker =
          add_privacy_filters(config_, i, name, site_names, filters);
      if (masker) filters.add(masker);
      sites.push_back(std::make_shared<SimSite>(
          registry_.at(name), factory_(i, name), job_runner_->async_router(),
          &pool, run_state, config_.job_id, long_poll, std::move(filters),
          std::move(masker)));
    }
    for (const auto& site : sites) site->start();

    // Every site ends by receiving kStop (run finished or aborted) or by
    // failing, so `remaining == 0` covers normal completion, abort, and
    // the everyone-failed case alike.
    bool drained;
    {
      core::MutexLock lock(run_state->mu);
      drained = run_state->cv.wait_for_ms(
          run_state->mu, config_.timeout_ms,
          [&]() CF_REQUIRES(run_state->mu) { return run_state->remaining == 0; });
    }
    if (!drained) {
      if (!server_->aborted()) {
        timed_out = true;
        // Aborting completes every parked poll with kStop, which is what
        // lets the stuck sites drain below.
        server_->abort("SimulatorRunner: run did not finish within timeout");
      }
      core::MutexLock lock(run_state->mu);
      drained = run_state->cv.wait_for_ms(
          run_state->mu, 60000,
          [&]() CF_REQUIRES(run_state->mu) { return run_state->remaining == 0; });
    }
    {
      core::MutexLock lock(run_state->mu);
      run_state->stopping = true;  // late replies must not touch the pool
      failed_sites = run_state->failed;
      if (!drained) {
        LOG(error)
            .msg("site state machines did not drain; abandoning")
            .kv("undrained", run_state->remaining);
      }
    }
  }  // joins the site worker pool
  if (timed_out) {
    throw Error("SimulatorRunner: run did not finish within timeout");
  }
  if (!server_->wait_until_finished(1000) && !server_->aborted()) {
    // All sites are done but the server never finished: every site failed
    // before the run could complete.
    throw Error("SimulatorRunner: every site failed before the run finished" +
                (failed_sites.empty() ? std::string()
                                      : " (first: " + failed_sites.front() + ")"));
  }
  return finalize(start, trace_t0, std::move(failed_sites));
}

SimulationResult SimulatorRunner::finalize(
    std::chrono::steady_clock::time_point start, std::int64_t trace_t0,
    std::vector<std::string> failed_sites) {
  SimulationResult result;
  result.final_model = server_->global_model();
  result.history = server_->history();
  result.aborted = server_->aborted();
  result.abort_reason = server_->abort_reason();
  result.abort_code = server_->abort_code();
  if (config_.dp.enabled) {
    const DpAccountant accountant(config_.dp.noise_multiplier, config_.dp.delta);
    result.dp_epsilon_spent = accountant.epsilon_after(
        static_cast<std::int64_t>(result.history.size()));
    result.dp_delta = config_.dp.delta;
  }
  result.failed_sites = std::move(failed_sites);
  result.resumed_from_round = resumed_from_round_;
  result.quarantined_sites = server_->quarantined_sites();
  // Snapshot the registry on success *and* abort: the per-site gauges were
  // recorded before validation, so even "every contribution was rejected"
  // aborts keep each site's last reported state.
  result.metrics = server_->metrics_snapshot();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (config_.trace) {
    // The whole-run span is recorded manually: a ScopedSpan here would
    // destruct only after stop() below and be dropped.
    core::Tracer::instance().record_complete("simulator.run", {}, -1, trace_t0,
                                             core::Tracer::instance().now_ns());
    core::Tracer::instance().stop();
    if (!config_.trace_json_path.empty()) {
      write_chrome_trace(config_.trace_json_path);
    }
  }
  if (result.aborted) {
    LOG(error)
        .msg("Simulation aborted:")
        .msg(result.abort_reason)
        .kv("wall_seconds", result.wall_seconds);
  } else {
    LOG(info)
        .msg("Simulation finished")
        .kv("wall_seconds", result.wall_seconds)
        .kv("rounds", config_.num_rounds);
  }
  return result;
}

}  // namespace cppflare::flare
