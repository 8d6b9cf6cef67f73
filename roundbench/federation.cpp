// One federation episode: set-up, rounds, the admin load beside them, and
// the checks. The learner and aggregator are wrapped in timing decorators
// whose spans feed the per-layer ledger; while the tracer is off a span is
// one relaxed load, so traced and untraced episodes run the same code.
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "flare/observability.h"
#include "roundbench.h"

namespace roundbench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class TimedLearner final : public flare::Learner {
 public:
  TimedLearner(std::shared_ptr<flare::Learner> inner, flare::Dxo* capture)
      : inner_(std::move(inner)), capture_(capture) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext& ctx) override {
    flare::Dxo update;
    {
      CF_TRACE_SPAN_SITE("bench.learner.train", ctx.site_name, ctx.current_round);
      update = inner_->train(global, ctx);
    }
    if (capture_ != nullptr && ctx.current_round + 1 == ctx.total_rounds) {
      *capture_ = update;
    }
    return update;
  }
  std::string site_name() const override { return inner_->site_name(); }

 private:
  std::shared_ptr<flare::Learner> inner_;
  flare::Dxo* capture_;  // site-1's last update, traced episodes only
};

class TimedAggregator : public flare::Aggregator {
 public:
  explicit TimedAggregator(std::unique_ptr<flare::Aggregator> inner)
      : inner_(std::move(inner)) {}

  void reset(const nn::StateDict& global, std::int64_t round) override {
    round_ = round;
    CF_TRACE_SPAN_SITE("bench.aggregator.reset", "", round);
    inner_->reset(global, round);
  }
  bool accept(const std::string& site, const flare::Dxo& contribution) override {
    CF_TRACE_SPAN_SITE("bench.aggregator.accept", site, round_);
    return inner_->accept(site, contribution);
  }
  bool revoke(const std::string& site) override { return inner_->revoke(site); }
  nn::StateDict aggregate() override {
    CF_TRACE_SPAN_SITE("bench.aggregator.aggregate", "", round_);
    return inner_->aggregate();
  }
  std::int64_t accepted_count() const override { return inner_->accepted_count(); }
  flare::RoundMetrics metrics() const override { return inner_->metrics(); }
  std::string name() const override { return inner_->name(); }

 protected:
  std::unique_ptr<flare::Aggregator> inner_;
  std::int64_t round_ = 0;
};

/// The decorator of a mask-recovery-capable aggregator also carries that
/// interface, so the simulator keeps it and the server's recovery protocol
/// still reaches the inner aggregator.
class TimedMaskedAggregator final : public TimedAggregator,
                                    public flare::MaskRecoveryCapable {
 public:
  TimedMaskedAggregator(std::unique_ptr<flare::Aggregator> inner,
                        flare::MaskRecoveryCapable& recovery)
      : TimedAggregator(std::move(inner)), recovery_(recovery) {}

  std::vector<std::string> accepted_sites() const override {
    return recovery_.accepted_sites();
  }
  bool set_unmask_share(const std::string& survivor, const flare::Dxo& share) override {
    return recovery_.set_unmask_share(survivor, share);
  }
  void clear_unmask_shares() override { recovery_.clear_unmask_shares(); }
  std::int64_t unmask_share_count() const override {
    return recovery_.unmask_share_count();
  }

 private:
  flare::MaskRecoveryCapable& recovery_;  // the inner aggregator
};

std::unique_ptr<flare::Aggregator> timed(std::unique_ptr<flare::Aggregator> inner) {
  if (auto* recovery = dynamic_cast<flare::MaskRecoveryCapable*>(inner.get())) {
    return std::make_unique<TimedMaskedAggregator>(std::move(inner), *recovery);
  }
  return std::make_unique<TimedAggregator>(std::move(inner));
}

/// Open-loop operator load: `status <job>` and `metrics <job>` alternate on
/// a fixed 50 ms schedule whatever the replies' latency, and each call is
/// timed from its scheduled send time, so a stalled console charges every
/// call queued behind the stall.
class AdminLoad {
 public:
  static constexpr std::chrono::milliseconds kPeriod{50};

  AdminLoad(flare::JobRunner& jobs, const std::string& job_id)
      : jobs_(jobs),
        commands_{"status " + job_id, "metrics " + job_id},
        thread_([this] { loop(); }) {}
  ~AdminLoad() { stop(); }

  AdminLoad(const AdminLoad&) = delete;
  AdminLoad& operator=(const AdminLoad&) = delete;

  /// Stops the generator; the calls are readable afterwards.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<AdminCall>& calls() const { return calls_; }

 private:
  void loop() {
    Clock::time_point due = Clock::now();
    for (std::size_t k = 0;; ++k, due += kPeriod) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due, [this] { return stopping_; })) return;
      }
      const Clock::time_point sent = Clock::now();
      bool ok = false;
      try {
        ok = jobs_.admin_execute(commands_[k % 2]).rfind("ok", 0) == 0;
      } catch (const std::exception&) {
        ok = false;
      }
      calls_.push_back(AdminCall{steady_ns(due), ms_between(due, Clock::now()),
                                 ms_between(due, sent), ok});
    }
  }

  flare::JobRunner& jobs_;
  const std::string commands_[2];
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<AdminCall> calls_;  // written by the generator thread only
  std::thread thread_;            // last: starts after everything it uses
};

/// Round timestamps taken by the server's observer and event bus.
struct Recorder {
  std::mutex mu;
  Clock::time_point first_round_start{};
  bool started = false;
  std::vector<Clock::time_point> round_end;
  std::vector<std::int64_t> round_end_trace_ns;
  std::vector<std::int64_t> round_end_cpu_ns;
};

}  // namespace

Episode run_episode(Workload& workload, const EpisodeOptions& options,
                    const std::string& scratch) {
  static int counter = 0;
  const std::string dir = scratch + "/episode-" + std::to_string(counter++);
  std::filesystem::create_directories(dir);

  const Shape& shape = workload.shape();
  Episode episode;
  episode.warmup =
      std::max<std::int64_t>(1, options.warmup >= 0 ? options.warmup : shape.warmup_rounds);
  episode.rounds = episode.warmup + options.timed_rounds;

  const Clock::time_point start = Clock::now();
  Inputs inputs = workload.prepare(dir);
  episode.prepare_ms = ms_between(start, Clock::now());

  flare::SimulatorConfig config = inputs.config;
  config.num_rounds = episode.rounds;
  config.timeout_ms = 150000;
  config.trace = options.trace;
  config.trace_capacity = 1 << 19;
  episode.config = config;

  // Declared before the runner: the server's observers refer to it.
  Recorder rec;
  if (episode.rounds == 1) episode.last_input = inputs.initial_model;
  flare::Dxo* capture = options.trace ? &episode.last_update : nullptr;
  flare::SimulatorRunner runner(
      config, std::move(inputs.initial_model), timed(std::move(inputs.aggregator)),
      [factory = inputs.learners, capture](std::int64_t i, const std::string& name) {
        return std::make_shared<TimedLearner>(factory(i, name), i == 0 ? capture : nullptr);
      });

  runner.server().events().subscribe(flare::EventType::kRoundStarted,
                                     [&rec](const flare::FLContext&) {
                                       std::lock_guard<std::mutex> lock(rec.mu);
                                       if (rec.started) return;
                                       rec.started = true;
                                       rec.first_round_start = Clock::now();
                                     });
  runner.server().add_round_observer(
      [&rec, &episode](std::int64_t round, const nn::StateDict& global,
                       const flare::RoundMetrics&) {
        const Clock::time_point now = Clock::now();
        const std::int64_t trace_ns = core::Tracer::instance().now_ns();
        const std::int64_t cpu_ns = process_cpu_ns();
        std::lock_guard<std::mutex> lock(rec.mu);
        rec.round_end.push_back(now);
        rec.round_end_trace_ns.push_back(trace_ns);
        rec.round_end_cpu_ns.push_back(cpu_ns);
        // The model this round publishes is the next one's input; keep the
        // last round's for the reference checks and the replay.
        if (round + 2 == episode.rounds) episode.last_input = global;
      });

  std::vector<AdminCall> admin_calls;
  {
    AdminLoad admin(runner.jobs(), config.job_id);
    try {
      episode.result = runner.run();
    } catch (const std::exception& e) {
      episode.failures.push_back(std::string("federation failed: ") + e.what());
    }
    admin.stop();
    admin_calls = admin.calls();
  }
  if (options.trace) {
    core::Tracer& tracer = core::Tracer::instance();
    episode.events = tracer.events();
    episode.trace_dropped = tracer.dropped();
    if (!options.trace_out.empty() && !flare::write_chrome_trace(options.trace_out)) {
      episode.failures.push_back("cannot write " + options.trace_out);
    }
  }

  const flare::SimulationResult& result = episode.result;
  std::lock_guard<std::mutex> lock(rec.mu);
  const auto completed = static_cast<std::int64_t>(rec.round_end.size());
  if (rec.started) {
    episode.setup_s =
        std::chrono::duration<double>(rec.first_round_start - start).count();
  }
  if (completed == episode.rounds) {
    episode.round_end_trace_ns = rec.round_end_trace_ns;
    episode.round_end_cpu_ns = rec.round_end_cpu_ns;
    const auto w = static_cast<std::size_t>(episode.warmup);
    for (std::size_t r = w; r < rec.round_end.size(); ++r) {
      episode.round_ms.push_back(ms_between(rec.round_end[r - 1], rec.round_end[r]));
    }
    episode.cpu_ms =
        static_cast<double>(rec.round_end_cpu_ns.back() - rec.round_end_cpu_ns[w - 1]) / 1e6;
    const std::int64_t begin = steady_ns(rec.round_end[w - 1]);
    const std::int64_t end = steady_ns(rec.round_end.back());
    for (const AdminCall& call : admin_calls) {
      if (call.scheduled_ns >= begin && call.scheduled_ns <= end) episode.admin.push_back(call);
    }
  } else {
    episode.failures.push_back("completed " + std::to_string(completed) + " of " +
                               std::to_string(episode.rounds) + " rounds");
  }

  // Attempts: one contribution per site per round plus every admin call.
  const auto& counters = result.metrics.counters;
  const auto accepted_it = counters.find(flare::metric_names::kServerContribAccepted);
  const std::int64_t accepted = accepted_it == counters.end() ? 0 : accepted_it->second;
  const std::int64_t expected = episode.rounds * shape.sites;
  std::int64_t admin_failed = 0;
  for (const AdminCall& call : admin_calls) admin_failed += call.ok ? 0 : 1;
  episode.attempted = expected + static_cast<std::int64_t>(admin_calls.size());
  episode.failed = std::max<std::int64_t>(0, expected - accepted) + admin_failed;
  if (accepted != expected) {
    episode.failures.push_back("accepted " + std::to_string(accepted) + " of " +
                               std::to_string(expected) + " contributions");
  }
  if (admin_failed != 0) {
    episode.failures.push_back(std::to_string(admin_failed) +
                               " admin replies did not start with \"ok\"");
  }
  if (result.aborted) episode.failures.push_back("aborted: " + result.abort_reason);
  if (!result.failed_sites.empty()) {
    episode.failures.push_back(std::to_string(result.failed_sites.size()) +
                               " site(s) failed");
  }
  if (episode.failures.empty() && options.check) {
    workload.check(result, episode.rounds, episode.last_input, episode.failures,
                   episode.detail);
  }
  std::filesystem::remove_all(dir);
  return episode;
}

}  // namespace roundbench
