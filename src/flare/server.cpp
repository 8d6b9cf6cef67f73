#include "flare/server.h"

#include <algorithm>
#include <chrono>
#include <ranges>
#include <utility>

#include "core/crashpoint.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/rng.h"
#include "flare/observability.h"

namespace cppflare::flare {

namespace {
/// Two components log from this file (NVFlare splits them the same way):
/// registration/liveness under ClientManager, round control under
/// ScatterAndGather — hence LOG_AS instead of a file-wide LOG component.
constexpr const char* kClientManager = "ClientManager";
constexpr const char* kSag = "ScatterAndGather";

/// The sender is authenticated but its session is gone (server restart or
/// eviction followed by session loss). Mapped to ErrorCode::kUnknownSession
/// so clients know to re-register instead of aborting.
struct UnknownSessionError : public ProtocolError {
  using ProtocolError::ProtocolError;
};

/// Masked uploads are pseudorandom bit patterns: NaN/Inf scans and norm
/// statistics would reject every honest contribution, so secure aggregation
/// forces those validator passes off (the documented trade-off — masking
/// defeats per-site inspection; DESIGN.md §14). Schema, freshness and
/// sample-count checks still run: shapes and meta stay plaintext.
ValidatorConfig effective_validator_config(const ServerConfig& config) {
  ValidatorConfig v = config.validator;
  if (!config.secure_agg.enabled) return v;
  if (v.enabled && (v.check_finite || v.norm_zscore_threshold > 0.0)) {
    LOG_AS(kSag, warn)
        .msg("Secure aggregation enabled: disabling finite-value and "
             "norm-outlier validation (masked updates are opaque to "
             "per-site inspection)")
        .kv("job", config.job_id);
    v.check_finite = false;
    v.norm_zscore_threshold = 0.0;
  }
  return v;
}
}  // namespace

const char* abort_code_name(AbortCode code) {
  switch (code) {
    case AbortCode::kNone: return "none";
    case AbortCode::kExternal: return "external";
    case AbortCode::kAllRejected: return "all_rejected";
    case AbortCode::kDeadlineBelowQuorum: return "deadline_below_quorum";
    case AbortCode::kRecoveryBelowQuorum: return "recovery_below_quorum";
    case AbortCode::kRecoveryExhausted: return "recovery_exhausted";
  }
  return "unknown";
}

FederatedServer::FederatedServer(ServerConfig config,
                                 std::map<std::string, Credential> registry,
                                 nn::StateDict initial_model,
                                 std::unique_ptr<Aggregator> aggregator,
                                 std::shared_ptr<ModelPersistor> persistor,
                                 std::optional<Checkpoint> resume,
                                 std::shared_ptr<RoundJournal> journal)
    : config_(std::move(config)),
      registry_(std::move(registry)),
      persistor_(std::move(persistor)),
      journal_(std::move(journal)),
      global_(std::move(initial_model)),
      aggregator_(std::move(aggregator)),
      validator_(effective_validator_config(config_)),
      reputation_(config_.reputation) {
  if (!aggregator_) throw Error("FederatedServer: aggregator required");
  if (config_.job_id.empty()) {
    throw ConfigError(
        "FederatedServer: job_id is required (the job registry keys servers "
        "and routes wire frames by it)");
  }
  if (config_.num_rounds <= 0) throw Error("FederatedServer: num_rounds must be > 0");
  mask_recovery_ = dynamic_cast<MaskRecoveryCapable*>(aggregator_.get());
  for (const auto& [name, credential] : registry_) sites_.emplace(name, Site{});
  if (config_.secure_agg.enabled) {
    if (mask_recovery_ == nullptr) {
      throw ConfigError(
          "FederatedServer: secure_agg.enabled requires a mask-recovery-"
          "capable aggregator (got " + aggregator_->name() + ")");
    }
    if (config_.clients_per_round > 0) {
      throw ConfigError(
          "FederatedServer: secure aggregation cannot be combined with "
          "clients_per_round sampling — a sampled-out site's pairwise masks "
          "never cancel");
    }
  }
  if (resume.has_value()) {
    if (resume->job_id != config_.job_id) {
      throw ConfigError("FederatedServer: checkpoint is for job '" +
                        resume->job_id + "', not '" + config_.job_id + "'");
    }
    global_ = std::move(resume->model);
    history_ = std::move(resume->history);
    round_ = resume->round + 1;
    reputation_.restore(std::move(resume->reputation));
    const std::int64_t quarantined = reputation_.quarantined_count();
    LOG_AS(kSag, info)
        .msg("Resuming job " + config_.job_id + " from checkpoint")
        .kv("last_round", resume->round)
        .kv("next_round", round_)
        .kv("num_rounds", config_.num_rounds)
        .kv("quarantined", quarantined);
    if (round_ >= config_.num_rounds) finished_ = true;
  }
  if (!finished_) {
    aggregator_->reset(global_, round_);
    validator_.reset(global_, round_);
  }
  if (journal_) {
    // Reconcile journal against checkpoint. Only a journal whose open round
    // IS the round we are about to run holds usable mid-round state; any
    // other open round is stale — most commonly a crash in the window after
    // the CPK3 checkpoint was saved but before the commit frame landed, in
    // which case the checkpoint already owns that round's outcome.
    const JournalReplay replay = journal_->open(config_.job_id);
    if (replay.open_round >= 0 && !finished_ &&
        replay.open_round == round_) {
      core::MutexLock lock(mu_);
      apply_journal_locked(replay);
    } else if (replay.open_round >= 0) {
      LOG_AS(kSag, warn)
          .msg("Journal holds a round the checkpoint superseded (or that no "
               "checkpoint backs); discarding it")
          .kv("journal_round", replay.open_round)
          .kv("next_round", round_)
          .kv("path", journal_->path());
      journal_->discard();
    }
  }
  // Unlocked reads are safe here: the ticker — the first other thread — has
  // not started yet, so construction still owns all state exclusively.
  born_terminal_ = finished_ || aborted_;
  // R5-exempt: the server's ticker thread (round deadlines, park expiry)
  ticker_thread_ = std::thread([this] { ticker_loop(); });
}

FederatedServer::~FederatedServer() {
  {
    core::MutexLock lock(mu_);
    ticker_stop_ = true;
    // Force-complete every park with its current answer (kStop when the run
    // ended, kNone otherwise) so no transport continuation outlives us.
    for (auto& [sender, park] : parked_) {
      ready_replies_.push_back(ReadyReply{sender, std::move(park.key),
                                          poll_reply_locked(sites_.at(sender)),
                                          std::move(park.respond)});
    }
    parked_.clear();
    metrics_.gauge(metric_names::kServerParkedPolls).set(0.0);
    ticker_cv_.notify_all();
  }
  if (ticker_thread_.joinable()) ticker_thread_.join();
  drain_ready_replies();
}

AsyncDispatcher FederatedServer::async_dispatcher() {
  return [this](const std::vector<std::uint8_t>& request, RespondFn respond) {
    dispatch(request, std::move(respond));
  };
}

std::vector<std::uint8_t> FederatedServer::seal_as_server(
    const std::string& sender, const std::vector<std::uint8_t>& key,
    const std::vector<std::uint8_t>& body) {
  // The pool is internally synchronized (and possibly shared with the job
  // router), so sealing no longer touches mu_.
  return seal("server", key, outbound_seq_->next(sender), body,
              config_.job_id);
}

void FederatedServer::dispatch(const std::vector<std::uint8_t>& request,
                               RespondFn respond) {
  std::string sender;
  std::vector<std::uint8_t> key;
  auto reply_error = [&](const std::string& what, ErrorCode code) {
    respond(seal_as_server(sender, key, pack(ErrorMessage{what, code})));
  };
  try {
    sender = peek_sender(request);
    auto cred_it = registry_.find(sender);
    if (cred_it == registry_.end()) {
      throw ProtocolError("unknown participant '" + sender + "'");
    }
    key = cred_it->second.secret;
    Envelope env;
    try {
      env = open(request, key);
    } catch (const std::exception& e) {
      // The frame failed verification *before* it was trusted: a corrupted
      // or truncated envelope. That is damage in flight, not a misbehaving
      // application — tell the client to re-seal and resend.
      reply_error(e.what(), ErrorCode::kRetryable);
      return;
    }
    if (env.job_id != config_.job_id) {
      // Authenticated but bound to another job (or to none): a misrouted or
      // cross-job replayed frame. Typed so the client aborts instead of retrying.
      // Checked BEFORE the replay tracker advances: sites share one
      // credential across jobs, so a replayed high-sequence frame from
      // another job must not poison this job's per-sender sequence state
      // (it would wedge the site's legitimate client as a false replay).
      reply_error("frame bound to job '" + env.job_id + "' reached job '" +
                      config_.job_id + "'",
                  ErrorCode::kWrongJob);
      return;
    }
    try {
      inbound_seq_.check_and_advance(sender, env.sequence);
    } catch (const std::exception& e) {
      // Replayed envelope: retryable, the client re-seals with a fresh
      // sequence and resends.
      reply_error(e.what(), ErrorCode::kRetryable);
      return;
    }
    record_liveness(sender);
    if (peek_type(env.payload) == MsgType::kGetTask) {
      park_or_reply_get_task(sender, key, decode_get_task(env.payload), respond);
    } else {
      respond(seal_as_server(sender, key, handle_frame(sender, env.payload)));
    }
  } catch (const UnknownSessionError& e) {
    reply_error(e.what(), ErrorCode::kUnknownSession);
  } catch (const TransportError& e) {
    reply_error(e.what(), ErrorCode::kRetryable);
  } catch (const std::exception& e) {
    // Errors to authenticated-but-misbehaving peers are sealed too when we
    // know the key; otherwise send a plain error envelope under an empty
    // key (the client will fail verification, which is the right outcome
    // for an unknown sender).
    reply_error(e.what(), ErrorCode::kFatal);
  }
  // The request may have advanced the round and released parked polls (or
  // staged this get_task's own reply); deliver them now that mu_ is free.
  drain_ready_replies();
}

void FederatedServer::park_or_reply_get_task(const std::string& sender,
                                             const std::vector<std::uint8_t>& key,
                                             const GetTaskRequest& req,
                                             RespondFn& respond) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.get_task", sender, round_);
  const Site& site = session_site_locked(sender, req.session_id, "get_task");
  // A poll changes no round state: deadlines, eviction, recovery waves and
  // park expiry all belong to the ticker.
  if (req.wait_ms > 0 && poll_parks_locked(site)) {
    // Park until the answer changes (round opens/advances/stops, or mask
    // recovery wants a share) or the clamped wait expires. One park per
    // site: a newer poll means the old connection is gone, so complete its
    // park with kNone (a dead connection drops the bytes harmlessly).
    auto existing = parked_.find(sender);
    if (existing != parked_.end()) {
      ready_replies_.push_back(ReadyReply{sender,
                                          std::move(existing->second.key),
                                          poll_reply_locked(site),
                                          std::move(existing->second.respond)});
      parked_.erase(existing);
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::min(req.wait_ms, kMaxGetTaskWaitMs));
    parked_.emplace(sender, ParkedPoll{key, std::move(respond), deadline});
    metrics_.gauge(metric_names::kServerParkedPolls)
        .set(static_cast<double>(parked_.size()));
    wake_ticker_locked(deadline);
    return;
  }
  ready_replies_.push_back(
      ReadyReply{sender, key, poll_reply_locked(site), std::move(respond)});
}

FederatedServer::Site& FederatedServer::session_site_locked(
    const std::string& sender, const std::string& session_id, const char* what) {
  Site& site = sites_.at(sender);
  if (!site.registered() || site.session != session_id) {
    throw UnknownSessionError(std::string(what) + ": no active session for '" +
                              sender + "'");
  }
  return site;
}

std::vector<std::uint8_t> FederatedServer::handle_frame(
    const std::string& sender, std::span<const std::uint8_t> frame) {
  switch (peek_type(frame)) {
    case MsgType::kRegister:
      return on_register(sender, decode_register(frame));
    case MsgType::kSubmitUpdate:
      return on_submit(sender, decode_submit(frame));
    case MsgType::kUnmaskResponse:
      return on_unmask(sender, decode_unmask_response(frame));
    default:
      throw ProtocolError("unexpected message type from '" + sender + "'");
  }
}

void FederatedServer::record_liveness(const std::string& sender) {
  core::MutexLock lock(mu_);
  Site& site = sites_.at(sender);
  site.last_seen = std::chrono::steady_clock::now();
  if (std::exchange(site.evicted, false)) {
    LOG_AS(kClientManager, info)
        .msg("Site seen again; re-admitted to the quorum")
        .kv("site", sender)
        .kv("round", round_);
  }
}

std::vector<std::uint8_t> FederatedServer::on_register(const std::string& sender,
                                                       const RegisterRequest& req) {
  CF_TRACE_SPAN_SITE("server.register", sender, -1);
  if (req.site_name != sender) {
    throw ProtocolError("register: site name does not match envelope sender");
  }
  const Credential& cred = registry_.at(sender);
  if (req.token != cred.token) {
    LOG_AS(kClientManager, warn).msg("Client presented a bad token").kv("site", sender);
    return pack(RegisterAck{false, "", "invalid token"});
  }
  core::MutexLock lock(mu_);
  Site& site = sites_.at(sender);
  if (site.registered()) {
    // Idempotent re-registration: a client that reconnected resumes its
    // session (and sequence state) instead of forking a second identity.
    LOG_AS(kClientManager, info)
        .msg("Client re-registered; resuming session")
        .kv("site", sender)
        .kv("session", site.session);
    return pack(RegisterAck{
        true, site.session,
        "Resumed session for client:" + sender + " in project " + config_.job_id});
  }
  site.session = "sess-" + std::to_string(++session_counter_) + "-" + sender;
  const std::int64_t registered =
      std::ranges::count_if(sites_ | std::views::values, &Site::registered);
  LOG_AS(kClientManager, info)
      .msg("Client: New client " + sender + "@127.0.0.1 joined. Sent token: " +
           cred.token + ". Total clients: " + std::to_string(registered));
  if (!started_ && !finished_ && !aborted_ &&
      registered >= config_.expected_clients) {
    started_ = true;
    events_.fire(EventType::kStartRun, make_context_locked());
    start_round_locked();
    // A replayed round may already hold every contribution or share: close
    // it now instead of on the ticker's next pass.
    maybe_close_round_locked();
    // The round just opened: every parked long-poll now has a train task.
    service_parked_locked();
  }
  return pack(RegisterAck{
      true, site.session,
      "Successfully registered client:" + sender + " for project " +
          config_.job_id + ". Token:" + cred.token});
}

TaskKind FederatedServer::task_kind_locked(const Site& site) const {
  if (finished_ || aborted_) return TaskKind::kStop;
  if (!started_ || site.outcome != Site::Outcome::kOpen || !site.in_cohort) {
    return TaskKind::kNone;
  }
  return TaskKind::kTrain;
}

bool FederatedServer::poll_parks_locked(const Site& site) const {
  if (finished_ || aborted_) return false;
  // A round frozen in mask recovery has work only for share-owing survivors.
  if (phase_ == RoundPhase::kRecovering) return !site.owes_share;
  return task_kind_locked(site) == TaskKind::kNone;
}

FederatedServer::Body FederatedServer::poll_reply_locked(const Site& site) {
  TaskMessage task;
  task.round = round_;
  task.total_rounds = config_.num_rounds;
  if (phase_ == RoundPhase::kRecovering && !finished_ && !aborted_) {
    if (site.owes_share) {
      // The skeleton lets a survivor restarted after a coordinator crash
      // (its mask filter's upload-time state gone) still derive its share.
      return body_of(
          pack(UnmaskRequest{round_, recovery_wave_, recovery_dropped_,
                             Dxo(DxoKind::kWeights, global_.zeros_like())}));
    }
    // The round is frozen: nobody else gets work until recovery resolves.
    return body_of(pack(task));
  }
  task.task = task_kind_locked(site);
  if (task.task == TaskKind::kTrain) return train_task_locked();
  return body_of(pack(task));
}

FederatedServer::Body FederatedServer::train_task_locked() {
  if (task_body_ != nullptr && task_body_round_ == round_) return task_body_;
  // global_ is lent to the message rather than copied, and moved back
  // whether or not packing succeeds.
  TaskMessage task{TaskKind::kTrain, round_, config_.num_rounds,
                   Dxo(DxoKind::kWeights, std::move(global_))};
  try {
    task.payload.set_meta_int(Dxo::kMetaRound, round_);
    task_body_ = body_of(pack(task));
  } catch (...) {
    global_ = std::move(task.payload.data());
    throw;
  }
  global_ = std::move(task.payload.data());
  task_body_round_ = round_;
  return task_body_;
}

void FederatedServer::service_parked_locked() {
  if (parked_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = parked_.begin(); it != parked_.end();) {
    Site& site = sites_.at(it->first);
    if (now < it->second.deadline && poll_parks_locked(site)) {
      ++it;
      continue;
    }
    // Completing a park is traffic from the site's point of view: the
    // client was waiting on us, not silent — refresh its liveness clock.
    site.last_seen = now;
    ready_replies_.push_back(ReadyReply{it->first, std::move(it->second.key),
                                        poll_reply_locked(site),
                                        std::move(it->second.respond)});
    it = parked_.erase(it);
  }
  metrics_.gauge(metric_names::kServerParkedPolls)
      .set(static_cast<double>(parked_.size()));
}

void FederatedServer::drain_ready_replies() {
  std::vector<ReadyReply> ready;
  {
    core::MutexLock lock(mu_);
    ready.swap(ready_replies_);
  }
  for (ReadyReply& reply : ready) {
    try {
      reply.respond(seal_as_server(reply.sender, reply.key, *reply.body));
    } catch (const std::exception& e) {
      LOG_AS(kSag, warn)
          .msg("Dropping undeliverable parked reply")
          .kv("site", reply.sender)
          .kv("error", e.what());
    }
  }
}

std::chrono::steady_clock::time_point FederatedServer::next_tick_locked() const {
  const auto now = std::chrono::steady_clock::now();
  auto at = now + std::chrono::milliseconds(500);
  if (started_ && !finished_ && !aborted_) {
    if (phase_ == RoundPhase::kRecovering) {
      at = std::min(at, recovery_deadline_);
    } else if (config_.round_deadline_ms > 0) {
      at = std::min(at, round_start_ + std::chrono::milliseconds(
                                           config_.round_deadline_ms));
    }
    if (config_.liveness_timeout_ms > 0) {
      at = std::min(at, now + std::chrono::milliseconds(20));
    }
  }
  for (const auto& [site, park] : parked_) at = std::min(at, park.deadline);
  return at;
}

void FederatedServer::wake_ticker_locked(std::chrono::steady_clock::time_point at) {
  if (at >= ticker_wake_at_) return;  // already due by then
  ticker_wake_at_ = at;
  ticker_cv_.notify_all();
}

void FederatedServer::ticker_loop() {
  core::MutexLock lock(mu_);
  while (!ticker_stop_) {
    const auto planned = ticker_wake_at_ = next_tick_locked();
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        planned - std::chrono::steady_clock::now());
    ticker_cv_.wait_for_ms(
        mu_, std::max<std::int64_t>(1, wait.count()),
        [this, planned]() CF_REQUIRES(mu_) {
          return ticker_stop_ || ticker_wake_at_ < planned;
        });
    if (ticker_stop_) break;
    if (started_ && !finished_ && !aborted_) maybe_close_round_locked();
    service_parked_locked();
    if (!ready_replies_.empty()) {
      lock.unlock();
      drain_ready_replies();
      lock.lock();
    }
  }
}

void FederatedServer::record_rejection_locked(RejectReason reason) {
  metrics_
      .counter(std::string(metric_names::kRejectionPrefix) +
               reject_reason_name(reason))
      .add(1);
  round_rejections_[reject_reason_name(reason)] += 1;
  if (reason != RejectReason::kQuarantined) {
    metrics_.counter(metric_names::kServerContribRejected).add(1);
  }
}

// Per-site gauges recorded for *every* upload that reaches the server,
// before validation runs — so a run that aborts mid-round still carries the
// last reported state of each site (SimulationResult::site_metrics).
void FederatedServer::record_site_metrics_locked(const std::string& site,
                                                 const Dxo& contribution) {
  metrics_.gauge(site_metric_name(site, "round")).set(static_cast<double>(round_));
  metrics_.gauge(site_metric_name(site, "num_samples"))
      .set(static_cast<double>(contribution.meta_int(Dxo::kMetaNumSamples, 0)));
  metrics_.gauge(site_metric_name(site, "train_loss"))
      .set(contribution.meta_double(Dxo::kMetaTrainLoss, 0.0));
  metrics_.gauge(site_metric_name(site, "valid_acc"))
      .set(contribution.meta_double(Dxo::kMetaValidAcc, 0.0));
  metrics_.gauge(site_metric_name(site, "valid_loss"))
      .set(contribution.meta_double(Dxo::kMetaValidLoss, 0.0));
}

std::vector<std::uint8_t> FederatedServer::on_submit(const std::string& sender,
                                                     SubmitUpdateRequest req) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.submit", sender, round_);
  const Site& site = session_site_locked(sender, req.session_id, "submit");
  if (finished_) {
    return pack(SubmitAck{false, "run already finished", RejectReason::kRunOver});
  }
  if (aborted_) return pack(SubmitAck{false, "run aborted", RejectReason::kRunOver});
  if (req.round != round_) {
    LOG_AS(kSag, warn)
        .msg("Stale contribution")
        .kv("site", sender)
        .kv("round", req.round)
        .kv("current", round_);
    metrics_.counter(metric_names::kServerLateContribs).add(1);
    if (req.round >= 0 &&
        req.round < static_cast<std::int64_t>(history_.size())) {
      // The round it was meant for already closed (deadline or eviction):
      // count it as late telemetry on that round's history entry.
      history_[static_cast<std::size_t>(req.round)].late_contributions += 1;
    }
    return pack(SubmitAck{false, "stale round", RejectReason::kStaleRound});
  }
  if (site.outcome == Site::Outcome::kAccepted) {
    // At-least-once delivery: the first submit landed but its ack was lost
    // and the client resent. Dedup here; the client maps this message back
    // to success.
    return pack(SubmitAck{false, kDuplicateContribution, RejectReason::kDuplicate});
  }
  if (site.outcome == Site::Outcome::kRejected) {
    // Already resolved this round with a rejection; answer resends with
    // the same verdict (at-least-once delivery, idempotent acks).
    return pack(site.rejected_ack);
  }
  if (phase_ == RoundPhase::kRecovering) {
    // The round is frozen mid-recovery: this site is in the dropped set,
    // and admitting it now would invalidate the shares already requested
    // from the survivors. It trains again when the next round opens.
    record_rejection_locked(RejectReason::kRecoveryInProgress);
    return pack(SubmitAck{false, "round frozen in mask recovery",
                          RejectReason::kRecoveryInProgress});
  }
  if (!site.in_cohort) {
    return pack(SubmitAck{false, "not sampled for this round",
                          RejectReason::kNotSampled});
  }

  Dxo contribution = std::move(req.payload);
  const FLContext ctx = make_context_locked();
  inbound_filters_.process(contribution, ctx);
  record_site_metrics_locked(sender, contribution);

  // Each verdict is journaled before round state changes: after the frame
  // is down, a crash anywhere leaves a replayable record and the client's
  // resend is answered from it — the site is never asked to train this
  // round again.
  SubmitAck ack{true, "accepted"};
  if (reputation_.quarantined(sender)) {
    // Quarantined uploads never reach the aggregator, but they are still
    // screened (and their norm judged at round close) so clean rounds can
    // grow the site's parole streak.
    double norm = 0.0;
    const Verdict verdict = validator_.score(sender, contribution, &norm);
    if (journal_) {
      journal_->quarantine_scored(sender, static_cast<std::uint8_t>(verdict.reason),
                                  verdict.detail, norm);
    }
    score_quarantined_locked(sender, verdict, norm);
    ack = site.rejected_ack;
  } else if (const Verdict verdict =
                 validator_.admit(*aggregator_, sender, contribution);
             !verdict.ok()) {
    ack = SubmitAck{false,
                    "rejected: " + std::string(reject_reason_name(verdict.reason)) +
                        (verdict.detail.empty() ? "" : " (" + verdict.detail + ")"),
                    verdict.reason};
    if (journal_) {
      journal_->rejected(sender, static_cast<std::uint8_t>(verdict.reason),
                         ack.message);
    }
    reject_locked(sender, ack);
  } else {
    // The accepted (post-filter) bytes: replay re-admits them.
    if (journal_) journal_->accepted(sender, contribution);
    CF_CRASHPOINT("journal.append.after");
    accept_locked(sender);
  }
  maybe_close_round_locked();
  // The submit may have closed the round (or aborted the run): wake every
  // parked long-poll whose answer changed.
  service_parked_locked();
  return pack(ack);
}

void FederatedServer::accept_locked(const std::string& site) {
  sites_[site].outcome = Site::Outcome::kAccepted;
  metrics_.counter(metric_names::kServerContribAccepted).add(1);
}

void FederatedServer::reject_locked(const std::string& site, SubmitAck ack) {
  record_rejection_locked(ack.reason);
  if (reputation_.record_rejection(site)) {
    LOG_AS(kSag, warn)
        .msg("Site QUARANTINED after consecutive rejections")
        .kv("site", site)
        .kv("strikes", config_.reputation.quarantine_after);
  }
  Site& record = sites_[site];
  record.outcome = Site::Outcome::kRejected;
  record.rejected_ack = std::move(ack);
}

void FederatedServer::score_quarantined_locked(const std::string& site,
                                               Verdict verdict, double norm) {
  record_rejection_locked(RejectReason::kQuarantined);
  Site& record = sites_[site];
  record.scored = std::move(verdict);
  record.scored_norm = norm;
  record.outcome = Site::Outcome::kRejected;
  record.rejected_ack =
      SubmitAck{false, "quarantined: update scored but excluded from aggregation",
                RejectReason::kQuarantined};
}

std::vector<std::uint8_t> FederatedServer::on_unmask(const std::string& sender,
                                                     const UnmaskResponse& req) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.unmask", sender, round_);
  const Site& site = session_site_locked(sender, req.session_id, "unmask");
  if (finished_) {
    return pack(SubmitAck{false, "run already finished", RejectReason::kRunOver});
  }
  if (aborted_) return pack(SubmitAck{false, "run aborted", RejectReason::kRunOver});
  if (req.round < round_) {
    // That round already published: the share (or a retransmission of it)
    // served its purpose. At-least-once delivery maps this to success.
    return pack(SubmitAck{true, "recovery already complete"});
  }
  if (phase_ != RoundPhase::kRecovering || req.round != round_) {
    return pack(SubmitAck{false,
                          "no mask recovery in progress for round " +
                              std::to_string(req.round),
                          RejectReason::kStaleRound});
  }
  if (req.wave != recovery_wave_) {
    // An answer against a previous wave's (smaller) dropped set is void.
    return pack(
        SubmitAck{false, "stale recovery wave", RejectReason::kStaleRound});
  }
  if (!site.owes_share) {
    // Duplicate delivery of a share already recorded this wave; the client
    // maps the duplicate-contribution message back to success.
    return pack(
        SubmitAck{false, kDuplicateContribution, RejectReason::kDuplicate});
  }
  if (!mask_recovery_->set_unmask_share(sender, req.share)) {
    return pack(SubmitAck{false, "mask share rejected (incongruent skeleton)",
                          RejectReason::kSchemaMismatch});
  }
  if (journal_) journal_->unmask_share(sender, req.share);
  CF_CRASHPOINT("recovery.share.after");
  record_share_locked(sender);
  // The last share finishes recovery and publishes the round: wake every
  // parked long-poll whose answer changed.
  advance_recovery_locked();
  service_parked_locked();
  return pack(SubmitAck{true, "mask share recorded"});
}

FLContext FederatedServer::make_context_locked() const {
  FLContext ctx;
  ctx.job_id = config_.job_id;
  ctx.current_round = round_;
  ctx.total_rounds = config_.num_rounds;
  return ctx;
}

void FederatedServer::record_share_locked(const std::string& site) {
  sites_[site].owes_share = false;
  metrics_.counter(metric_names::kServerUnmaskShares).add(1);
  LOG_AS(kSag, info)
      .msg("Unmask share recorded")
      .kv("site", site)
      .kv("round", round_)
      .kv("wave", recovery_wave_)
      .kv("outstanding",
          std::ranges::count(sites_ | std::views::values, true, &Site::owes_share));
}

void FederatedServer::start_round_locked() {
  round_start_ = std::chrono::steady_clock::now();
  round_start_ns_ = core::Tracer::instance().now_ns();
  for (const std::int64_t budget :
       {config_.round_deadline_ms, config_.liveness_timeout_ms}) {
    if (budget > 0) {
      wake_ticker_locked(round_start_ + std::chrono::milliseconds(budget));
    }
  }
  if (open_round_ == round_) {
    // Already open: rebuilt by journal replay, or opened when a replayed
    // recovery finished before the run started. Its cohort is the journaled
    // one and replay re-counted exactly the rejections before the crash.
    // Reopening would fork the round; only the clock restarts.
    LOG_AS(kSag, info)
        .msg("Round " + std::to_string(round_) + " resumed mid-flight.")
        .kv("accepted", aggregator_->accepted_count())
        .kv("recovering", phase_ == RoundPhase::kRecovering);
    return;
  }
  const std::vector<std::string> cohort = sample_cohort_locked();
  if (journal_) {
    journal_->round_open(round_, cohort);
    CF_CRASHPOINT("journal.open.after");
  }
  open_round_locked(cohort);
  LOG_AS(kSag, info).msg("Round " + std::to_string(round_) + " started.");
  events_.fire(EventType::kRoundStarted, make_context_locked());
}

void FederatedServer::open_round_locked(const std::vector<std::string>& cohort) {
  for (auto& [name, site] : sites_) {
    site.in_cohort =
        cohort.empty() || std::binary_search(cohort.begin(), cohort.end(), name);
    site.outcome = Site::Outcome::kOpen;
    site.scored.reset();
    site.owes_share = false;
  }
  round_rejections_.clear();
  open_round_ = round_;
}

// Reconstructs mid-round state by feeding each journaled event to the same
// transition helper the live path ran after journaling it. Accepted DXO
// bytes first go back through validator_.admit (rebuilding the aggregator's
// buffers AND the round's norm population) and shares through
// set_unmask_share. Runs in the constructor before the ticker exists and
// before any client can connect; deadlines restart from "now" — wall-clock
// budgets are per-process, only the *state* is durable.
void FederatedServer::apply_journal_locked(const JournalReplay& replay) {
  bool crash_pending = true;
  for (const JournalEvent& ev : replay.events) {
    switch (ev.type) {
      case JournalEventType::kRoundOpen:
        open_round_locked(ev.names);
        break;
      case JournalEventType::kAccepted: {
        const Verdict verdict =
            validator_.admit(*aggregator_, ev.site, *ev.payload);
        if (!verdict.ok()) {
          // Cannot happen for bytes that were admitted live unless the code
          // changed between runs; surface it rather than silently dropping
          // a contribution the client will never resend.
          throw ProtocolError(
              "journal replay: previously accepted contribution from '" +
              ev.site + "' no longer admits (" + verdict.detail + ")");
        }
        accept_locked(ev.site);
        break;
      }
      case JournalEventType::kRejected:
        reject_locked(ev.site, SubmitAck{false, ev.detail,
                                         static_cast<RejectReason>(ev.reason)});
        break;
      case JournalEventType::kQuarantineScored:
        score_quarantined_locked(
            ev.site, Verdict{static_cast<RejectReason>(ev.reason), ev.detail},
            ev.norm);
        break;
      case JournalEventType::kEviction:
        sites_[ev.site].evicted = true;
        break;
      case JournalEventType::kRecoveryBegin:
        if (mask_recovery_ == nullptr) {
          throw ConfigError(
              "journal replay: log holds mask-recovery events but the "
              "aggregator is not mask-recovery capable");
        }
        enter_recovery_locked(ev.names, ev.deadline_fired);
        break;
      case JournalEventType::kUnmaskShare:
        if (mask_recovery_->set_unmask_share(ev.site, *ev.payload)) {
          record_share_locked(ev.site);
        }
        break;
      case JournalEventType::kRecoveryWave:
        demote_wave_locked(ev.names);
        break;
      case JournalEventType::kJobHeader:
      case JournalEventType::kCommit:
        break;  // structural frames; RoundJournal::open consumed them
    }
    if (crash_pending) {
      crash_pending = false;
      CF_CRASHPOINT("replay.mid");
    }
  }
  LOG_AS(kSag, info)
      .msg("Journal replay reconstructed mid-round state")
      .kv("round", round_)
      .kv("events", static_cast<std::int64_t>(replay.events.size()))
      .kv("accepted", aggregator_->accepted_count())
      .kv("rejected", std::ranges::count(sites_ | std::views::values,
                                         Site::Outcome::kRejected, &Site::outcome))
      .kv("recovering", phase_ == RoundPhase::kRecovering)
      .kv("torn_bytes", static_cast<std::int64_t>(replay.torn_bytes));
}

// Round-close defense pass. The norm-outlier judgment runs here, over the
// round's *complete* set of admitted norms (never a running estimate), so
// verdicts — and therefore the aggregate — are independent of arrival
// order. Flagged contributions are revoked from the aggregator, then every
// site's reputation is settled for the round.
void FederatedServer::settle_round_verdicts_locked() {
  for (const auto& [site, verdict] : validator_.flag_outliers()) {
    if (!aggregator_->revoke(site)) {
      LOG_AS(kSag, warn)
          .msg("Site flagged as a norm outlier but aggregator cannot revoke; "
               "contribution kept")
          .kv("site", site)
          .kv("aggregator", aggregator_->name());
      continue;
    }
    LOG_AS(kSag, warn)
        .msg("Update revoked at round close")
        .kv("site", site)
        .kv("detail", verdict.detail);
    reject_locked(site, SubmitAck{false,
                                  "rejected: norm_outlier (" + verdict.detail + ")",
                                  RejectReason::kNormOutlier});
  }
  for (const auto& [name, site] : sites_) {
    // Sites whose contributions survived to aggregation were clean.
    if (site.outcome == Site::Outcome::kAccepted) {
      (void)reputation_.record_clean(name);
      continue;
    }
    // Quarantined sites' scored uploads: a screening failure is a strike; a
    // screening pass is judged against the round's norm population, and a
    // clean verdict grows the parole streak.
    if (!site.scored) continue;
    Verdict verdict = *site.scored;
    if (verdict.ok()) verdict = validator_.judge_norm(site.scored_norm);
    if (!verdict.ok()) {
      (void)reputation_.record_rejection(name);
    } else if (reputation_.record_clean(name)) {
      LOG_AS(kSag, info)
          .msg("Site paroled; re-admitted")
          .kv("site", name)
          .kv("clean_rounds", config_.reputation.parole_after)
          .kv("from_round", round_ + 1);
    }
  }
}

void FederatedServer::finish_round_locked(bool deadline_fired) {
  events_.fire(EventType::kBeforeAggregation, make_context_locked());
  settle_round_verdicts_locked();
  if (aggregator_->accepted_count() == 0) {
    abort_run_locked("round " + std::to_string(round_) +
                         ": every contribution was rejected by the update "
                         "validator",
                     AbortCode::kAllRejected);
    return;
  }
  LOG_AS(kSag, info).msg("End aggregation.");
  {
    CF_TRACE_SPAN_SITE("server.aggregate", "", round_);
    global_ = aggregator_->aggregate();
  }
  RoundMetrics metrics = aggregator_->metrics();
  metrics.evicted_sites =
      std::ranges::count(sites_ | std::views::values, true, &Site::evicted);
  metrics.deadline_fired = deadline_fired;
  metrics.rejections_by_reason = round_rejections_;
  for (const auto& [reason, count] : round_rejections_) {
    if (reason != reject_reason_name(RejectReason::kQuarantined)) {
      metrics.rejected_updates += count;
    }
  }
  metrics.quarantined_sites = reputation_.quarantined_count();
  history_.push_back(metrics);

  metrics_.counter(metric_names::kServerRoundsCompleted).add(1);
  metrics_.gauge(metric_names::kServerTrainLoss).set(metrics.train_loss);
  metrics_.gauge(metric_names::kServerValidAcc).set(metrics.valid_acc);
  metrics_.gauge(metric_names::kServerValidLoss).set(metrics.valid_loss);
  metrics_.gauge(metric_names::kServerEvictedSites)
      .set(static_cast<double>(metrics.evicted_sites));
  if (deadline_fired) {
    metrics_.counter(metric_names::kServerDeadlineFired).add(1);
  }
  // The round span opened in start_round_locked and closes here, across
  // many dispatch calls — hence a manual complete-event, not a ScopedSpan.
  core::Tracer& tracer = core::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record_complete("server.round", {}, round_, round_start_ns_,
                           tracer.now_ns());
  }

  events_.fire(EventType::kAfterAggregation, make_context_locked());
  for (const RoundObserver& observer : round_observers_) {
    observer(round_, global_, history_.back());
  }

  if (persistor_) {
    LOG_AS(kSag, info).msg("Start persist model on server.");
    {
      CF_TRACE_SPAN_SITE("server.persist", "", round_);
      persistor_->save({config_.job_id, round_, global_, history_,
                        reputation_.standings()});
    }
    LOG_AS(kSag, info).msg("End persist model on server.");
  }
  if (journal_) {
    // Commit barrier: the checkpoint above now owns this round's outcome;
    // the commit frame marks the journal's round state obsolete and the
    // log is compacted back to its job header. A crash in this window
    // (journal.commit.before) resolves at restart by the open-round-vs-
    // checkpoint reconciliation — the stale journal is discarded.
    CF_CRASHPOINT("journal.commit.before");
    journal_->commit(round_);
  }
  open_round_ = -1;
  LOG_AS(kSag, info).msg("Round " + std::to_string(round_) + " finished.");
  events_.fire(EventType::kRoundDone, make_context_locked());

  task_body_.reset();  // the next round's task carries the new global model
  round_ += 1;
  if (round_ >= config_.num_rounds) {
    finished_ = true;
    events_.fire(EventType::kEndRun, make_context_locked());
    finished_cv_.notify_all();
  } else {
    aggregator_->reset(global_, round_);
    validator_.reset(global_, round_);
    start_round_locked();
  }
}

void FederatedServer::maybe_close_round_locked() {
  if (finished_ || aborted_ || !started_) return;
  if (phase_ == RoundPhase::kRecovering) {
    // The round already closed for contributions; only recovery progress
    // (shares arriving, the wave deadline) can move it now.
    advance_recovery_locked();
    return;
  }
  evict_stragglers_locked();
  // A round closes when enough participants have *resolved* (accepted or
  // rejected), not just accepted: a rejected site will never submit again
  // this round, so waiting on it would stall until the deadline.
  const Quorum quorum = quorum_locked();
  if (quorum.resolved >= quorum.needed) {
    close_round_locked(/*deadline_fired=*/false);
    return;
  }
  const std::int64_t accepted = aggregator_->accepted_count();
  if (config_.round_deadline_ms <= 0) return;
  const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - round_start_)
                       .count();
  if (age < config_.round_deadline_ms) return;
  const std::int64_t required = quorum.min_required;
  if (accepted >= required) {
    LOG_AS(kSag, warn)
        .msg("Round deadline exceeded; closing early")
        .kv("round", round_)
        .kv("accepted", accepted)
        .kv("quorum", quorum.needed);
    close_round_locked(/*deadline_fired=*/true);
  } else {
    abort_run_locked("round " + std::to_string(round_) +
                         " deadline exceeded with " + std::to_string(accepted) +
                         " contribution(s), below min_clients=" +
                         std::to_string(required),
                     AbortCode::kDeadlineBelowQuorum);
  }
}

void FederatedServer::close_round_locked(bool deadline_fired) {
  if (config_.secure_agg.enabled && mask_recovery_ != nullptr &&
      aggregator_->accepted_count() > 0) {
    // Masked round: every registered site whose contribution is *not* in
    // the aggregate (crashed, evicted, rejected, or simply late) leaves
    // uncancelled masks behind. Detour into recovery when any exist.
    std::vector<std::string> dropped;  // sorted: sites_ is name-ordered
    for (const auto& [name, site] : sites_) {
      if (site.registered() && site.outcome != Site::Outcome::kAccepted) {
        dropped.push_back(name);
      }
    }
    if (!dropped.empty()) {
      // Journal the freeze before entering it: a crash anywhere in the
      // recovery phase replays back to a frozen round with this dropped set.
      if (journal_) journal_->recovery_begin(round_, dropped, deadline_fired);
      CF_CRASHPOINT("recovery.begin.after");
      enter_recovery_locked(std::move(dropped), deadline_fired);
      return;
    }
  }
  finish_round_locked(deadline_fired);
}

void FederatedServer::enter_recovery_locked(std::vector<std::string> dropped,
                                            bool deadline_fired) {
  phase_ = RoundPhase::kRecovering;
  recovery_wave_ = 0;
  recovery_deadline_fired_ = deadline_fired;
  recovery_dropped_ = std::move(dropped);
  recovery_start_ns_ = core::Tracer::instance().now_ns();
  metrics_.counter(metric_names::kServerRecoveryRounds).add(1);
  metrics_.gauge(metric_names::kServerRecoveryDropped)
      .set(static_cast<double>(recovery_dropped_.size()));
  std::string names;
  for (const std::string& s : recovery_dropped_) {
    names += (names.empty() ? "" : ", ") + s;
  }
  LOG_AS(kSag, warn)
      .msg("Masked round closed with sites missing; entering mask recovery")
      .kv("round", round_)
      .kv("dropped", names)
      .kv("survivors",
          static_cast<std::int64_t>(mask_recovery_->accepted_sites().size()));
  open_wave_locked();
}

void FederatedServer::open_wave_locked() {
  // Survivors are exactly the accepted sites: demotion reopened the rest.
  for (auto& [name, site] : sites_) {
    site.owes_share = site.outcome == Site::Outcome::kAccepted;
  }
  recovery_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.secure_agg.recovery_deadline_ms);
  // Parked survivors receive the wave's UnmaskRequest now.
  service_parked_locked();
  wake_ticker_locked(recovery_deadline_);
}

void FederatedServer::advance_recovery_locked() {
  if (phase_ != RoundPhase::kRecovering) return;
  std::vector<std::string> laggards;  // sorted: sites_ is name-ordered
  for (const auto& [name, site] : sites_) {
    if (site.owes_share) laggards.push_back(name);
  }
  if (laggards.empty()) {
    finish_recovery_locked();
    return;
  }
  if (std::chrono::steady_clock::now() < recovery_deadline_) return;
  // One frame covers the whole demotion cascade, so replay re-runs it
  // atomically and a crash cannot leave a half-demoted wave.
  if (journal_) journal_->recovery_wave(recovery_wave_, laggards);
  CF_CRASHPOINT("recovery.wave.mid");
  demote_wave_locked(laggards);
}

// Wave deadline: every survivor still owing its share is demoted — the
// buffered masked contribution is revoked byte-exactly (so its own masks
// leave the sum with it) and its name joins the dropped set. The remaining
// survivors must answer again against the enlarged set, so all recorded
// shares are void.
void FederatedServer::demote_wave_locked(const std::vector<std::string>& laggards) {
  for (const std::string& site : laggards) {
    (void)aggregator_->revoke(site);
    sites_[site].outcome = Site::Outcome::kOpen;
    recovery_dropped_.push_back(site);
    LOG_AS(kSag, warn)
        .msg("Survivor failed to reveal its mask share in time; demoted")
        .kv("site", site)
        .kv("round", round_)
        .kv("wave", recovery_wave_);
  }
  metrics_.counter(metric_names::kServerRecoveryDemotions)
      .add(static_cast<std::int64_t>(laggards.size()));
  std::sort(recovery_dropped_.begin(), recovery_dropped_.end());
  mask_recovery_->clear_unmask_shares();
  metrics_.gauge(metric_names::kServerRecoveryDropped)
      .set(static_cast<double>(recovery_dropped_.size()));
  const auto survivors =
      static_cast<std::int64_t>(mask_recovery_->accepted_sites().size());
  const std::int64_t required = quorum_locked().min_required;
  if (survivors < required) {
    abort_run_locked("round " + std::to_string(round_) +
                         ": mask recovery demoted the surviving set to " +
                         std::to_string(survivors) +
                         " site(s), below min_clients=" + std::to_string(required),
                     AbortCode::kRecoveryBelowQuorum);
    return;
  }
  recovery_wave_ += 1;
  if (recovery_wave_ >= config_.secure_agg.max_recovery_waves) {
    abort_run_locked("round " + std::to_string(round_) +
                         ": mask recovery did not converge within " +
                         std::to_string(config_.secure_agg.max_recovery_waves) +
                         " wave(s)",
                     AbortCode::kRecoveryExhausted);
    return;
  }
  open_wave_locked();
}

void FederatedServer::finish_recovery_locked() {
  core::Tracer& tracer = core::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record_complete("server.mask_recovery", {}, round_,
                           recovery_start_ns_, tracer.now_ns());
  }
  LOG_AS(kSag, info)
      .msg("Mask recovery complete; publishing the round")
      .kv("round", round_)
      .kv("dropped", static_cast<std::int64_t>(recovery_dropped_.size()))
      .kv("waves", recovery_wave_ + 1);
  phase_ = RoundPhase::kCollecting;
  recovery_dropped_.clear();
  recovery_wave_ = 0;
  const bool deadline_fired = recovery_deadline_fired_;
  recovery_deadline_fired_ = false;
  finish_round_locked(deadline_fired);
}

void FederatedServer::evict_stragglers_locked() {
  if (config_.liveness_timeout_ms <= 0 || !started_) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& [name, site] : sites_) {
    // Only an unresolved cohort member can stall the round. (Survivors
    // owing a mask share are accepted: the recovery deadline judges them.)
    if (!site.registered() || site.outcome != Site::Outcome::kOpen ||
        site.evicted || !site.in_cohort) {
      continue;
    }
    // Silence is measured within the round: a site that resolved round N
    // and has not yet spoken in round N+1 owes nothing until N+1 started —
    // without this, the ticker would evict last round's contributors the
    // moment a lingering round finally closes.
    const auto silent_since = std::max(site.last_seen, round_start_);
    const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - silent_since)
                            .count();
    // A parked long-poll is the opposite of silence: the site is connected
    // and waiting on *us*. Never evict it for not sending frames.
    if (silent >= config_.liveness_timeout_ms && parked_.count(name) == 0) {
      if (journal_) journal_->evicted(name);
      site.evicted = true;
      LOG_AS(kClientManager, warn)
          .msg("Site unseen; evicted from the quorum")
          .kv("site", name)
          .kv("silent_ms", silent)
          .kv("round", round_);
    }
  }
}

void FederatedServer::abort_run_locked(const std::string& reason,
                                       AbortCode code) {
  if (finished_ || aborted_) return;
  aborted_ = true;
  abort_reason_ = reason;
  abort_code_ = code;
  LOG_AS(kSag, error).msg("Run aborted:").msg(reason).kv(
      "code", abort_code_name(code));
  events_.fire(EventType::kEndRun, make_context_locked());
  finished_cv_.notify_all();
}

bool FederatedServer::abort(const std::string& reason) {
  bool did_abort = false;
  {
    core::MutexLock lock(mu_);
    // Terminal state is settled under mu_: a run that finished (or already
    // aborted) before we got the lock stays that way — the caller learns the
    // abort lost the race instead of a finished run flipping to aborted.
    if (!finished_ && !aborted_) {
      abort_run_locked(reason);
      did_abort = true;
    }
    service_parked_locked();  // every park now answers kStop
  }
  drain_ready_replies();
  return did_abort;
}

std::vector<std::string> FederatedServer::sample_cohort_locked() const {
  if (config_.clients_per_round <= 0) return {};  // empty: everyone
  // Quarantined sites are left out of the draw: sampling one would shrink
  // the round's effective quorum for no benefit (its upload could not be
  // aggregated anyway). When the draw would take every eligible site, the
  // cohort is every registered site, quarantined ones included so they are
  // still scored — listed, so a site registering mid-round waits for the
  // next draw.
  std::vector<std::string> registered, eligible;
  for (const auto& [name, site] : sites_) {
    if (!site.registered()) continue;
    registered.push_back(name);
    if (!reputation_.quarantined(name)) eligible.push_back(name);
  }
  if (static_cast<std::int64_t>(eligible.size()) <= config_.clients_per_round) {
    return registered;
  }
  core::Rng rng(config_.sampling_seed ^
                (static_cast<std::uint64_t>(round_) * 0x9e3779b97f4a7c15ull));
  rng.shuffle(eligible);
  eligible.resize(static_cast<std::size_t>(config_.clients_per_round));
  std::sort(eligible.begin(), eligible.end());
  std::string names;
  for (const std::string& s : eligible) names += (names.empty() ? "" : ", ") + s;
  LOG_AS(kSag, info)
      .msg("Round sampled participants:")
      .msg(names)
      .kv("round", round_);
  return eligible;
}

// Quarantined sites are excluded from every quorum count: they still poll
// and are scored, but the round must not wait on them (and must not shrink
// toward min_clients because of them) — an 8-site round with one
// quarantined site closes exactly like a clean 7-site round. One pass over
// the records: every submit and ticker pass checks the quorum under mu_,
// so with hundreds of sites this scan is much of the time the lock is held.
FederatedServer::Quorum FederatedServer::quorum_locked() const {
  std::int64_t participants = 0, live = 0;
  Quorum q;
  for (const auto& [name, site] : sites_) {
    if (!site.registered() || !site.in_cohort || reputation_.quarantined(name)) {
      continue;
    }
    participants += 1;
    if (!site.evicted) live += 1;
    if (site.outcome != Site::Outcome::kOpen) q.resolved += 1;
  }
  // min_clients cannot demand more sites than this round even has.
  q.min_required = std::max<std::int64_t>(1, std::min(config_.min_clients, participants));
  // Wait for every live participant, but never close below the
  // graceful-degradation floor even when eviction thinned the round out.
  q.needed = std::max(q.min_required, live);
  return q;
}

bool FederatedServer::finished() const {
  core::MutexLock lock(mu_);
  return finished_;
}

bool FederatedServer::aborted() const {
  core::MutexLock lock(mu_);
  return aborted_;
}

std::string FederatedServer::abort_reason() const {
  core::MutexLock lock(mu_);
  return abort_reason_;
}

AbortCode FederatedServer::abort_code() const {
  core::MutexLock lock(mu_);
  return abort_code_;
}

bool FederatedServer::wait_until_finished(std::int64_t timeout_ms) const {
  core::MutexLock lock(mu_);
  finished_cv_.wait_for_ms(mu_, timeout_ms, [this]() CF_REQUIRES(mu_) {
    return finished_ || aborted_;
  });
  return finished_ && !aborted_;
}

nn::StateDict FederatedServer::global_model() const {
  core::MutexLock lock(mu_);
  return global_;
}

std::vector<RoundMetrics> FederatedServer::history() const {
  core::MutexLock lock(mu_);
  return history_;
}

std::int64_t FederatedServer::current_round() const {
  core::MutexLock lock(mu_);
  return round_;
}

std::int64_t FederatedServer::registered_clients() const {
  core::MutexLock lock(mu_);
  return std::ranges::count_if(sites_ | std::views::values, &Site::registered);
}

std::vector<std::string> FederatedServer::evicted_sites() const {
  core::MutexLock lock(mu_);
  std::vector<std::string> evicted;
  for (const auto& [name, site] : sites_) {
    if (site.evicted) evicted.push_back(name);
  }
  return evicted;
}

std::vector<std::string> FederatedServer::quarantined_sites() const {
  core::MutexLock lock(mu_);
  return reputation_.quarantined_sites();
}

std::map<std::string, SiteStanding> FederatedServer::reputation() const {
  core::MutexLock lock(mu_);
  return reputation_.standings();
}

}  // namespace cppflare::flare
