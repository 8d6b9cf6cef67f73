#include "flare/simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "flare/observability.h"
#include "flare/secure_agg.h"
#include "flare/tcp.h"

#define CPPFLARE_LOG_COMPONENT "SimulatorRunner"

namespace cppflare::flare {

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
  for (std::int64_t i = 0; i < config_.num_clients; ++i) {
    site_names_.push_back("site-" + std::to_string(i + 1));
  }
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

  // One pool drives every site. An in-process send parks server-side and
  // holds no worker, so `site_workers` bounds the pool; a TCP send holds its
  // worker until the reply arrives, so TCP runs get one worker per site.
  const std::int64_t workers = std::max<std::int64_t>(
      1, config_.site_workers > 0 && !config_.use_tcp ? config_.site_workers
                                                      : config_.num_clients);
  // Divide the machine between site workers and kernel threads before any
  // kernel runs, so every site's training shares one budgeted compute pool
  // instead of each site oversubscribing the host.
  if (config_.compute_threads > 0) {
    core::set_compute_threads(
        static_cast<std::size_t>(config_.compute_threads));
  } else if (config_.compute_threads == 0) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const auto pool = static_cast<std::size_t>(workers);
    core::set_compute_threads_if_default(hw > pool ? hw - pool + 1 : 1);
  }
  LOG(info)
      .msg("Compute budget")
      .kv("site_workers", workers)
      .kv("compute_threads", static_cast<std::int64_t>(core::compute_threads()));

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
        // Routed through the job registry like every other transport.
        conn = std::make_unique<InProcConnection>(job_runner_->async_router());
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

  std::vector<std::unique_ptr<FederatedClient>> owned;
  std::vector<FederatedClient*> clients;
  for (std::int64_t i = 0; i < config_.num_clients; ++i) {
    const std::string& name = site_names_[static_cast<std::size_t>(i)];
    ClientConfig client_config;
    client_config.job_id = config_.job_id;
    client_config.max_idle_ms = config_.timeout_ms;
    client_config.long_poll_ms = config_.long_poll_ms;
    client_config.retry = config_.client_retry;
    auto client = std::make_unique<FederatedClient>(
        client_config, registry_.at(name), make_factory(i, name), factory_(i, name));
    setup_site(i, client->session());
    clients.push_back(client.get());
    owned.push_back(std::move(client));
  }

  // Every site ends by receiving kStop (run finished or aborted) or by
  // failing, so the wait covers completion, abort and total failure alike.
  bool timed_out = false;
  const std::vector<std::exception_ptr> errors = FederatedClient::run_all(
      clients, static_cast<std::size_t>(workers), config_.timeout_ms, [&] {
        if (server_->aborted()) return;
        timed_out = true;
        // Aborting completes every parked poll with kStop, which is what
        // lets the stuck sites end.
        server_->abort("SimulatorRunner: run did not finish within timeout");
      });
  if (tcp_server) tcp_server->stop();
  if (timed_out) {
    throw Error("SimulatorRunner: run did not finish within timeout");
  }
  std::vector<std::string> failed_sites;
  std::exception_ptr first_failure;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i]) continue;
    failed_sites.push_back(site_names_[i]);
    if (!first_failure) first_failure = errors[i];
  }
  if (!server_->wait_until_finished(0) && !server_->aborted()) {
    // Every site ended before the run did, so every site failed: surface
    // the lowest-index failure with its type.
    if (first_failure) std::rethrow_exception(first_failure);
    throw Error("SimulatorRunner: every site ended before the run finished");
  }
  // A degraded but completed run (some clients failed, quorum still met) and
  // an aborted run both report through the result instead of throwing.
  return finalize(start, trace_t0, std::move(failed_sites));
}

void SimulatorRunner::setup_site(std::int64_t index, SiteSession& session) const {
  const std::string& name = site_names_[static_cast<std::size_t>(index)];
  FilterChain& chain = session.outbound_filters();
  if (customizer_) customizer_(session);
  if (config_.dp.enabled) {
    chain.add(std::make_shared<DpGaussianFilter>(
        config_.dp.clip_norm, config_.dp.noise_multiplier,
        config_.dp.seed ^ (0x9e3779b97f4a7c15ull *
                           static_cast<std::uint64_t>(index + 1))));
  }
  // Pre-scaling stands in for server-side sample weighting under masking.
  if (config_.secure_agg.enabled && config_.secure_agg.pre_scale) {
    chain.add(std::make_shared<PreScaleFilter>(config_.num_clients,
                                               config_.secure_agg.total_samples));
  }
  // The poison filter goes in *after* the customizer's and the privacy
  // filters: an adversarial site corrupts what it would actually have sent,
  // and its poison is not accidentally clipped back to sanity.
  if (poison_planner_) {
    if (const std::optional<PoisonPlan> plan = poison_planner_(index, name)) {
      chain.add(std::make_shared<PoisonFilter>(*plan));
      LOG(warn).msg(name + " is ADVERSARIAL this run").kv("site", name);
    }
  }
  if (!config_.secure_agg.enabled) return;
  // The mask filter goes in last of all: whatever the site sends, honest or
  // poisoned, is what gets hidden under masks.
  std::shared_ptr<SecureAggMaskFilter> masker = make_secure_agg_mask_filter(
      config_.job_id, config_.secure_agg.dealer_seed, name, site_names_,
      config_.secure_agg.frac_bits);
  chain.add(masker);
  session.set_unmask_provider(
      [masker](const std::vector<std::string>& dropped, std::int64_t round,
               const nn::StateDict& skeleton) {
        return masker->unmask_share(dropped, round, skeleton);
      });
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
