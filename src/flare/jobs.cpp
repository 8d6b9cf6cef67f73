#include "flare/jobs.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"

#define CPPFLARE_LOG_COMPONENT "JobRunner"

namespace cppflare::flare {

namespace {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::vector<std::uint8_t> to_bytes(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kFinished:
      return "finished";
    case JobState::kAborted:
      return "aborted";
  }
  return "unknown";
}

// ---- AdminClient ----------------------------------------------------------

AdminClient::AdminClient(std::unique_ptr<Connection> connection,
                         Credential credential)
    : connection_(std::move(connection)),
      credential_(std::move(credential)),
      key_(credential_.secret) {
  if (!connection_) throw Error("AdminClient: connection required");
}

std::string AdminClient::call(const std::string& line) {
  const std::vector<std::uint8_t> sealed =
      seal(credential_.name, key_, seq_.next(), to_bytes(line));
  std::vector<std::uint8_t> sealed_reply = connection_->call(sealed);
  Envelope env;
  try {
    env = open(std::move(sealed_reply), key_);
  } catch (const Error& e) {
    throw TransportError(std::string("admin: reply unverifiable: ") + e.what());
  }
  if (env.sender != "server") {
    throw ProtocolError("admin: reply not from server but '" + env.sender + "'");
  }
  server_seq_.check_and_advance(env.sender, env.sequence);
  // Replies are raw UTF-8 text except transport-layer rejections, which
  // arrive as the ordinary tagged ErrorMessage. Text is printable ASCII, so
  // the kError tag byte (7) is unambiguous.
  if (!env.payload.empty() &&
      env.payload[0] == static_cast<std::uint8_t>(MsgType::kError)) {
    const ErrorMessage err = decode_error(env.payload);
    if (err.code == ErrorCode::kRetryable) {
      throw TransportError("admin (retryable): " + err.message);
    }
    throw ProtocolError("admin: " + err.message);
  }
  return std::string(env.payload.begin(), env.payload.end());
}

// ---- JobRunner ------------------------------------------------------------
//
// Lock order: a finishing server fires kEndRun while holding its own round
// lock, and the runner's on_job_end handler then takes mu_ — the order is
// server.mu_ -> runner.mu_. Every other runner method therefore resolves
// what it needs under mu_ (copying the raw server pointer, which stays
// valid because jobs are never erased), releases, and only then calls into
// a server. That includes building one: the constructor replays an open
// journal round under the new server's round lock. Hence staged admission —
// schedule_locked picks the jobs and holds their slots under mu_ (they stay
// kQueued, marked `starting`, so nothing routes to them or counts them
// twice); start_jobs builds each server with mu_ released, subscribes to
// its kEndRun before the server is visible to any other runner method (so
// an admin abort can never race past the subscription), installs it under
// mu_, runs the configure hook outside it (the hook takes the server's
// round lock), and only then does the job turn routable. An abort that
// arrives while a job is starting is parked on the job and delivered once
// its server is installed.

JobRunner::JobRunner(std::map<std::string, Credential> site_pool)
    : site_pool_(std::move(site_pool)), keys_(channel_keys(site_pool_)) {}

JobRunner::~JobRunner() {
  std::vector<std::unique_ptr<Job>> jobs;
  {
    core::MutexLock lock(mu_);
    jobs.swap(jobs_);
  }
  // Tear servers down outside mu_: anything they run on their last legs
  // (parked-poll completions, event handlers) may re-enter the runner and
  // must find an empty registry, not a half-destroyed vector.
  jobs.clear();
}

std::string JobRunner::submit(JobSpec spec) {
  const std::string id = spec.server.job_id;
  if (id.empty()) {
    throw ConfigError(
        "JobRunner::submit: job id is required (spec.server.job_id)");
  }
  if (!spec.aggregator) {
    throw ConfigError("JobRunner::submit: aggregator required for job '" + id +
                      "'");
  }
  if (spec.journal && spec.journal_path.empty() && spec.persist_path.empty()) {
    throw ConfigError("JobRunner::submit: job '" + id +
                      "' wants a journal but has neither journal_path nor "
                      "persist_path to derive one from");
  }
  std::vector<Job*> started;
  {
    core::MutexLock lock(mu_);
    if (find_locked(id) != nullptr) {
      throw ConfigError("JobRunner::submit: duplicate job id '" + id +
                        "' (job ids are registry-unique)");
    }
    auto job = std::make_unique<Job>();
    job->id = id;
    job->slots = std::max<std::int64_t>(1, spec.compute_slots);
    job->spec = std::move(spec);
    jobs_.push_back(std::move(job));
    LOG(info)
        .msg("job submitted")
        .kv("job", id)
        .kv("slots", jobs_.back()->slots);
    started = schedule_locked();
    cv_.notify_all();
  }
  start_jobs(std::move(started));
  return id;
}

void JobRunner::register_blueprint(std::string name, Blueprint blueprint) {
  core::MutexLock lock(mu_);
  blueprints_[std::move(name)] = std::move(blueprint);
}

std::vector<JobRunner::Job*> JobRunner::schedule_locked() {
  const std::int64_t budget =
      std::max<std::int64_t>(1, core::compute_threads());
  std::int64_t used = 0;
  for (const auto& job : jobs_) {
    if (job->starting || (job->phase == JobState::kRunning && !job->terminal)) {
      used += job->slots;
    }
  }
  std::vector<Job*> started;
  for (const auto& job : jobs_) {
    if (job->phase != JobState::kQueued || job->starting) continue;
    // Clamp so a job demanding more than the machine still runs — alone.
    const std::int64_t want = std::min(job->slots, budget);
    // Strict FIFO: a job that does not fit blocks everything behind it,
    // keeping admission order (and thus scheduling) deterministic.
    if (used + want > budget) break;
    job->slots = want;
    job->starting = true;
    started.push_back(job.get());
    used += want;
  }
  return started;
}

namespace {

/// Builds a job's server from its spec (moving the model and aggregator
/// out): checkpoint resume, journal and its replay included.
std::unique_ptr<FederatedServer> build_server(
    JobSpec& spec, const std::map<std::string, Credential>& site_pool) {
  std::shared_ptr<ModelPersistor> persistor;
  std::optional<Checkpoint> resume;
  if (!spec.persist_path.empty()) {
    persistor = std::make_shared<ModelPersistor>(spec.persist_path);
    if (spec.resume) resume = persistor->load();
  }
  std::shared_ptr<RoundJournal> journal;
  if (spec.journal) {
    const std::string path = spec.journal_path.empty()
                                 ? spec.persist_path + ".journal"
                                 : spec.journal_path;
    journal = std::make_shared<RoundJournal>(path, spec.journal_sync);
  }
  return std::make_unique<FederatedServer>(
      spec.server, site_pool, std::move(spec.initial_model),
      std::move(spec.aggregator), std::move(persistor), std::move(resume),
      std::move(journal));
}

}  // namespace

void JobRunner::start_jobs(std::vector<Job*> jobs) {
  // Indexed: a job that fails to start or is terminal on arrival frees its
  // slots, and the jobs that admits are appended and started here too.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = *jobs[i];
    // No lock needed to read the spec: only the thread that marked the job
    // starting touches it until the job leaves kQueued.
    std::unique_ptr<FederatedServer> server;
    std::string failure;
    try {
      server = build_server(job.spec, site_pool_);
    } catch (const Error& e) {
      failure = e.what();
    }
    if (server) {
      server->share_outbound_sequences(sequences_);
      const std::string id = job.id;
      server->events().subscribe(
          EventType::kEndRun, [this, id](const FLContext&) { on_job_end(id); });
    }
    std::optional<std::string> pending_abort;
    {
      core::MutexLock lock(mu_);
      job.starting = false;
      if (!server) {
        // A job that cannot start (bad config, corrupt journal) must not
        // wedge the queue behind it: record the failure as an abort.
        job.phase = JobState::kAborted;
        job.cancel_reason = "failed to start: " + failure;
        LOG(warn).msg("job failed to start").kv("job", job.id).kv("error", failure);
      } else {
        job.server = std::move(server);
        job.phase = JobState::kRunning;
        pending_abort = std::move(job.pending_abort);
        // A job resumed from an already-complete checkpoint is born
        // terminal and never fires kEndRun; without this its slots would
        // stay counted as used forever — wedging the strict-FIFO queue and
        // wait_all(). born_terminal() is immutable and lock-free.
        if (job.server->born_terminal()) {
          job.terminal = true;
          LOG(info)
              .msg("job terminal at admission (resumed past its last round)")
              .kv("job", job.id);
        } else {
          LOG(info).msg("job admitted").kv("job", job.id).kv("slots", job.slots);
        }
      }
      // Failed, born terminal, or ended before it was installed: its slots
      // are free now, so admit the jobs behind it.
      if (!job.server || job.terminal) {
        std::vector<Job*> more = schedule_locked();
        jobs.insert(jobs.end(), more.begin(), more.end());
      }
      cv_.notify_all();
    }
    if (!job.server) continue;
    if (pending_abort) job.server->abort(*pending_abort);
    if (job.spec.configure) job.spec.configure(*job.server);
    core::MutexLock lock(mu_);
    job.routable = true;
    cv_.notify_all();
  }
}

void JobRunner::on_job_end(const std::string& job_id) {
  std::vector<Job*> started;
  {
    core::MutexLock lock(mu_);
    Job* job = find_locked(job_id);
    if (job == nullptr || job->terminal) return;
    job->terminal = true;
    // We are under the finishing server's round lock here (kEndRun fires
    // with it held): free the slots and admit successors, but never call
    // back into that server.
    started = schedule_locked();
    cv_.notify_all();
  }
  // Still under the finishing server's round lock — but these are
  // *different*, newly admitted servers; the finishing one is not touched.
  start_jobs(std::move(started));
}

JobRunner::Job* JobRunner::find_locked(const std::string& job_id) const {
  for (const auto& job : jobs_) {
    if (job->id == job_id) return job.get();
  }
  return nullptr;
}

FederatedServer& JobRunner::server(const std::string& job_id) {
  core::MutexLock lock(mu_);
  Job* job = find_locked(job_id);
  if (job == nullptr) {
    throw ConfigError("JobRunner: unknown job '" + job_id + "'");
  }
  if (!job->server) {
    if (job->phase == JobState::kAborted) {
      throw ConfigError("JobRunner: job '" + job_id +
                        "' has no server: " + job->cancel_reason);
    }
    throw ConfigError("JobRunner: job '" + job_id +
                      "' has no server yet (queued)");
  }
  return *job->server;
}

JobStatus JobRunner::seed_status_locked(const Job& job) const {
  JobStatus status;
  status.job_id = job.id;
  status.state = job.phase;
  status.compute_slots = job.slots;
  status.num_rounds = job.spec.server.num_rounds;
  if (job.phase == JobState::kAborted) {
    // Cancelled (or failed) while queued: the abort never reached a server.
    status.abort_code = AbortCode::kExternal;
    status.abort_reason = job.cancel_reason;
  }
  return status;
}

void JobRunner::fill_from_server(JobStatus& status,
                                 FederatedServer* server) const {
  if (server == nullptr) return;
  status.current_round = server->current_round();
  status.registered_clients = server->registered_clients();
  if (server->aborted()) {
    status.state = JobState::kAborted;
    status.abort_code = server->abort_code();
    status.abort_reason = server->abort_reason();
  } else if (server->finished()) {
    status.state = JobState::kFinished;
  } else {
    status.state = JobState::kRunning;
  }
}

std::vector<JobStatus> JobRunner::list() const {
  std::vector<std::pair<JobStatus, FederatedServer*>> seeds;
  {
    core::MutexLock lock(mu_);
    seeds.reserve(jobs_.size());
    for (const auto& job : jobs_) {
      seeds.emplace_back(seed_status_locked(*job), job->server.get());
    }
  }
  std::vector<JobStatus> out;
  out.reserve(seeds.size());
  for (auto& [status, server] : seeds) {
    fill_from_server(status, server);
    out.push_back(std::move(status));
  }
  return out;
}

JobStatus JobRunner::status(const std::string& job_id) const {
  JobStatus status;
  FederatedServer* server = nullptr;
  {
    core::MutexLock lock(mu_);
    Job* job = find_locked(job_id);
    if (job == nullptr) {
      throw ConfigError("JobRunner: unknown job '" + job_id + "'");
    }
    status = seed_status_locked(*job);
    server = job->server.get();
  }
  fill_from_server(status, server);
  return status;
}

bool JobRunner::abort(const std::string& job_id, const std::string& reason) {
  FederatedServer* server = nullptr;
  std::vector<Job*> started;
  bool cancelled_queued = false;
  {
    core::MutexLock lock(mu_);
    Job* job = find_locked(job_id);
    if (job == nullptr) return false;
    if (job->phase == JobState::kQueued && job->starting) {
      // Its server is being built outside mu_; start_jobs aborts it once
      // it is installed.
      job->pending_abort = reason.empty() ? "aborted by admin" : reason;
      return true;
    }
    if (job->phase == JobState::kQueued) {
      job->phase = JobState::kAborted;
      job->cancel_reason =
          reason.empty() ? "cancelled while queued" : reason;
      LOG(info).msg("queued job cancelled").kv("job", job_id);
      // Cancelling a queued job cannot free capacity, but keep the queue
      // moving in case it was the head-of-line blocker.
      started = schedule_locked();
      cv_.notify_all();
      cancelled_queued = true;
    } else {
      if (job->terminal || job->phase != JobState::kRunning) return false;
      server = job->server.get();
    }
  }
  if (cancelled_queued) {
    start_jobs(std::move(started));
    return true;
  }
  // The server settles the race under its own lock: abort() refuses once
  // the run is terminal, so a run finishing right here stays finished.
  return server->abort(reason.empty() ? "aborted by admin" : reason);
}

bool JobRunner::wait_until_running(const std::string& job_id,
                                   std::int64_t timeout_ms) {
  core::MutexLock lock(mu_);
  cv_.wait_for_ms(mu_, timeout_ms, [this, &job_id]() CF_REQUIRES(mu_) {
    Job* job = find_locked(job_id);
    if (job == nullptr || job->phase == JobState::kQueued) {
      return job == nullptr;
    }
    // Admitted but mid-finalize: routing still bounces frames, so keep
    // callers waiting until the configure hook has run.
    return job->server == nullptr || job->routable;
  });
  Job* job = find_locked(job_id);
  return job != nullptr && job->server != nullptr && job->routable;
}

bool JobRunner::wait_all(std::int64_t timeout_ms) {
  core::MutexLock lock(mu_);
  return cv_.wait_for_ms(mu_, timeout_ms, [this]() CF_REQUIRES(mu_) {
    for (const auto& job : jobs_) {
      if (job->phase == JobState::kQueued) return false;
      if (job->phase == JobState::kRunning && !job->terminal) return false;
    }
    return true;
  });
}

// ---- routing --------------------------------------------------------------

std::vector<std::uint8_t> JobRunner::seal_reply(
    const std::string& sender, const ChannelKey& key, const std::string& job_id,
    const std::vector<std::uint8_t>& body) {
  // Sealed from the shared pool so this sequence interleaves correctly with
  // whatever any hosted server later sends the same peer. The claimed job id
  // is echoed so the client's own binding check accepts the reply. Replies
  // under the empty key (unknown or unparseable peers) take the fixed
  // sequence and leave the pool alone.
  const std::uint64_t sequence =
      key.unkeyed() ? kUnkeyedReplySequence : sequences_->next(sender);
  return seal("server", key, sequence, body, job_id);
}

JobRunner::Route JobRunner::resolve(const std::vector<std::uint8_t>& request) {
  Route route;
  std::string sender;
  std::string job_id;
  try {
    sender = peek_sender(request);
    job_id = peek_job(request);
  } catch (const Error&) {
    // Unparseable prefix: mirror FederatedServer's unknown-sender shape — a
    // retryable error sealed under an empty key (the caller cannot verify
    // it, which correctly reads as a transport failure).
    route.reply = seal_reply("", {}, "",
                             pack(ErrorMessage{"malformed envelope",
                                               ErrorCode::kRetryable}));
    return route;
  }
  if (sender == "admin") {
    route.reply = handle_admin(request);
    return route;
  }
  const auto key_it = keys_.find(sender);
  if (key_it == keys_.end()) {
    // Unknown peer: rejected uniformly before the job registry is even
    // consulted, mirroring the single-job server's unknown-participant
    // reply. Answering per-job would let an unauthenticated peer — who can
    // seal under the empty secret — tell kWrongJob apart from
    // unknown-participant and enumerate which job ids this process hosts.
    route.reply = seal_reply(
        sender, {}, "",
        pack(ErrorMessage{"unknown participant '" + sender + "'",
                          ErrorCode::kRetryable}));
    return route;
  }
  const ChannelKey& key = key_it->second;
  // The routing key is unauthenticated until the tag checks out, so a
  // misroute must not be declared fatal on a frame that is merely damaged
  // in flight: verify first, and answer corruption with the same retryable
  // error the single-job server would have sent. The corrupted frame's ids
  // cannot be trusted either, so that reply goes out *unbound* — echoing a
  // garbage job id would trip the sender's own binding check.
  const auto wrong_job = [&](const std::string& message) {
    try {
      verify(request, key);
    } catch (const Error&) {
      return seal_reply(
          sender, key, "",
          pack(ErrorMessage{"frame failed verification at the job router",
                            ErrorCode::kRetryable}));
    }
    return seal_reply(sender, key, job_id,
                      pack(ErrorMessage{message, ErrorCode::kWrongJob}));
  };
  // Registry lookup under mu_; wrong_job stays outside — it re-verifies the
  // whole frame (a tag over the full payload) and sealing the reply is not
  // free either, so doing it under the registry lock would serialize every
  // concurrent frame's route resolution behind one bad frame.
  std::string wrong_job_msg;
  {
    core::MutexLock lock(mu_);
    Job* job = find_locked(job_id);
    if (job == nullptr) {
      wrong_job_msg = job_id.empty() ? "frame carries no job binding"
                                     : "no job '" + job_id + "' is hosted here";
    } else {
      if (job->phase == JobState::kQueued) {
        route.reply = seal_reply(
            sender, key, job_id,
            pack(ErrorMessage{"job '" + job->id +
                                  "' is queued awaiting compute capacity",
                              ErrorCode::kRetryable}));
      } else if (!job->server) {
        route.reply = seal_reply(
            sender, key, job_id,
            pack(ErrorMessage{"job '" + job->id + "' never started: " +
                                  job->cancel_reason,
                              ErrorCode::kFatal}));
      } else if (!job->routable) {
        // Admitted but its configure hook is still running: no frame may
        // reach a half-configured server (filters and observers would miss
        // this round). Momentary, so retryable.
        route.reply = seal_reply(
            sender, key, job_id,
            pack(ErrorMessage{"job '" + job->id + "' is starting",
                              ErrorCode::kRetryable}));
      } else {
        route.dispatch = job->server->async_dispatcher();
      }
      return route;
    }
  }
  route.reply = wrong_job(wrong_job_msg);
  return route;
}

AsyncDispatcher JobRunner::async_router() {
  return [this](const std::vector<std::uint8_t>& request, RespondFn respond) {
    Route route = resolve(request);
    if (route.dispatch) {
      route.dispatch(request, std::move(respond));
      return;
    }
    respond(std::move(route.reply));
  };
}

// ---- admin console --------------------------------------------------------

std::vector<std::uint8_t> JobRunner::handle_admin(
    const std::vector<std::uint8_t>& request) {
  const auto it = keys_.find("admin");
  if (it == keys_.end()) {
    return seal_reply("admin", {}, "",
                      pack(ErrorMessage{"no admin identity is provisioned",
                                        ErrorCode::kFatal}));
  }
  const ChannelKey& key = it->second;
  Envelope env;
  try {
    env = open(request, key);
    admin_inbound_.check_and_advance(env.sender, env.sequence);
  } catch (const Error& e) {
    return seal_reply(
        "admin", key, "",
        pack(ErrorMessage{std::string("admin frame rejected: ") + e.what(),
                          ErrorCode::kRetryable}));
  }
  const std::string line(env.payload.begin(), env.payload.end());
  return seal_reply("admin", key, "", to_bytes(admin_execute(line)));
}

std::string JobRunner::admin_execute(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) {
    return "err empty command (expected submit|list|status|abort|metrics)";
  }
  const std::string& cmd = tokens[0];
  try {
    if (cmd == "list") {
      std::string reply;
      const std::vector<JobStatus> statuses = list();
      reply = "ok jobs=" + std::to_string(statuses.size());
      for (const JobStatus& s : statuses) {
        reply += "\n" + s.job_id + " state=" + job_state_name(s.state) +
                 " round=" + std::to_string(s.current_round) + "/" +
                 std::to_string(s.num_rounds) +
                 " clients=" + std::to_string(s.registered_clients) +
                 " slots=" + std::to_string(s.compute_slots);
      }
      return reply;
    }
    if (cmd == "status") {
      if (tokens.size() != 2) return "err usage: status <job>";
      const JobStatus s = status(tokens[1]);
      std::string reply =
          "ok " + s.job_id + " state=" + job_state_name(s.state) +
          " round=" + std::to_string(s.current_round) + "/" +
          std::to_string(s.num_rounds) +
          " clients=" + std::to_string(s.registered_clients) +
          " slots=" + std::to_string(s.compute_slots);
      if (s.state == JobState::kAborted) {
        reply += " abort=" + std::string(abort_code_name(s.abort_code)) +
                 " reason=\"" + s.abort_reason + "\"";
      }
      return reply;
    }
    if (cmd == "metrics") {
      if (tokens.size() != 2) return "err usage: metrics <job>";
      core::MetricSnapshot snapshot;
      {
        // server() validates existence; the snapshot itself is lock-free
        // with respect to the server's round lock.
        snapshot = server(tokens[1]).metrics_snapshot();
      }
      std::string reply = "ok " + tokens[1] +
                          " counters=" + std::to_string(snapshot.counters.size()) +
                          " gauges=" + std::to_string(snapshot.gauges.size());
      for (const auto& [name, value] : snapshot.counters) {
        reply += "\ncounter " + name + " " + std::to_string(value);
      }
      for (const auto& [name, value] : snapshot.gauges) {
        reply += "\ngauge " + name + " " + format_double(value);
      }
      return reply;
    }
    if (cmd == "abort") {
      if (tokens.size() < 2) return "err usage: abort <job> [reason]";
      std::string reason;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (!reason.empty()) reason += " ";
        reason += tokens[i];
      }
      if (!abort(tokens[1], reason)) {
        return "err job '" + tokens[1] + "' is unknown or already terminal";
      }
      return "ok aborting " + tokens[1];
    }
    if (cmd == "submit") {
      if (tokens.size() != 3) return "err usage: submit <blueprint> <job>";
      Blueprint blueprint;
      {
        core::MutexLock lock(mu_);
        const auto bp = blueprints_.find(tokens[1]);
        if (bp == blueprints_.end()) {
          return "err unknown blueprint '" + tokens[1] + "'";
        }
        blueprint = bp->second;
      }
      JobSpec spec = blueprint(tokens[2]);
      spec.server.job_id = tokens[2];
      submit(std::move(spec));
      return "ok submitted " + tokens[2];
    }
  } catch (const Error& e) {
    return std::string("err ") + e.what();
  }
  return "err unknown command '" + cmd +
         "' (expected submit|list|status|abort|metrics)";
}

}  // namespace cppflare::flare
