// The per-layer ledger of a traced episode.
//
// Two sources. Spans — the program's own (server.*, client.*, learner.train,
// train.*, tensor.*, tcp.call) and the benchmark decorators' (bench.*) — give
// each layer's self time over the timed rounds. Layers without a span
// (envelope seal/open, message pack/decode, validation, the outbound
// filters, journal, persistor, the TCP round trip) are replayed: the last
// round's payloads go through the same public calls outside the federation,
// median of 5, and a per-call cost is multiplied by the calls a round makes
// (one task and one submit per site).
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/tcp.h"
#include "flare/validator.h"
#include "roundbench.h"

namespace roundbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReplayCalls = 5;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Median wall time of kReplayCalls calls of `body`, each after an untimed
/// `setup`.
template <typename Setup, typename Body>
double median_ms(Setup setup, Body body) {
  std::vector<double> samples;
  for (int i = 0; i < kReplayCalls; ++i) {
    setup();
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(ms_since(start));
  }
  return median(samples);
}

template <typename Body>
double median_ms(Body body) {
  return median_ms([] {}, body);
}

/// Keeps a replayed call's result observable so it is not optimized away.
volatile std::size_t g_sink = 0;
void keep(std::size_t value) { g_sink = g_sink + value; }

/// One span name's totals over the timed window.
struct SpanRow {
  std::int64_t count = 0;
  double wall_ms = 0.0;
  double self_ms = 0.0;
  double self_cpu_ms = 0.0;
};

}  // namespace

Replay replay_round(const Episode& traced, const std::string& dir) {
  const flare::SimulatorConfig& config = traced.config;
  if (traced.last_input.empty() || traced.last_update.data().empty()) {
    throw std::runtime_error("replay: the last round's payloads were not captured");
  }
  const std::string site = site_name(0);
  const flare::Credential credential =
      flare::Provisioner(config.job_id, config.seed).provision(site);
  const std::int64_t round = traced.rounds - 1;
  flare::FLContext ctx;
  ctx.job_id = config.job_id;
  ctx.site_name = site;
  ctx.current_round = round;
  ctx.total_rounds = config.num_rounds;
  std::uint64_t sequence = 0;
  Replay r;

  // Task: the server packs and seals the global model; the site opens and
  // decodes it.
  flare::TaskMessage task;
  task.task = flare::TaskKind::kTrain;
  task.round = round;
  task.total_rounds = config.num_rounds;
  task.payload = flare::Dxo(flare::DxoKind::kWeights, traced.last_input);
  task.payload.set_meta_int(flare::Dxo::kMetaRound, round);
  std::vector<std::uint8_t> task_frame, task_sealed;
  r.pack_task_ms = median_ms([&] { task_frame = flare::pack(task); });
  r.seal_task_ms = median_ms([&] {
    task_sealed = flare::seal("server", credential.secret, ++sequence, task_frame,
                              config.job_id);
  });
  flare::Envelope envelope;
  r.open_task_ms = median_ms([&] { envelope = flare::open(task_sealed, credential.secret); });
  r.decode_task_ms = median_ms(
      [&] { keep(flare::decode_task(envelope.payload).payload.data().size()); });
  r.task_frame_bytes = static_cast<double>(task_sealed.size());

  // Submit: the site's outbound filter stages, pack and seal; the server
  // opens, decodes and screens it.
  flare::Dxo update = traced.last_update;
  if (!update.has_meta(flare::Dxo::kMetaRound)) {
    update.set_meta_int(flare::Dxo::kMetaRound, round);
  }
  flare::FilterChain dp_stage, mask_stage;
  if (config.dp.enabled) {
    dp_stage.add(std::make_shared<flare::DpGaussianFilter>(
        config.dp.clip_norm, config.dp.noise_multiplier, config.dp.seed));
  }
  if (config.secure_agg.enabled) {
    std::vector<std::string> sites;
    for (std::int64_t i = 0; i < config.num_clients; ++i) sites.push_back(site_name(i));
    mask_stage.add(flare::make_secure_agg_mask_filter(
        config.job_id, config.secure_agg.dealer_seed, site, sites,
        config.secure_agg.frac_bits));
  }
  flare::Dxo staged;
  r.filter_dp_ms = median_ms([&] { staged = update; },
                             [&] { dp_stage.process(staged, ctx); });
  const flare::Dxo after_dp = staged;
  r.filter_mask_ms = median_ms([&] { staged = after_dp; },
                               [&] { mask_stage.process(staged, ctx); });
  const flare::Dxo wire = staged;
  const flare::SubmitUpdateRequest submit{"sess-1-" + site, round, wire};
  std::vector<std::uint8_t> submit_frame, submit_sealed;
  r.pack_submit_ms = median_ms([&] { submit_frame = flare::pack(submit); });
  r.seal_submit_ms = median_ms([&] {
    submit_sealed =
        flare::seal(site, credential.secret, ++sequence, submit_frame, config.job_id);
  });
  r.open_submit_ms =
      median_ms([&] { envelope = flare::open(submit_sealed, credential.secret); });
  r.decode_submit_ms = median_ms(
      [&] { keep(flare::decode_submit(envelope.payload).payload.data().size()); });
  r.submit_frame_bytes = static_cast<double>(submit_sealed.size());
  // The server copies each decoded contribution before its inbound filters.
  flare::Dxo copy;
  r.copy_submit_ms = median_ms([&] { copy = wire; });

  // The server screens masked payloads without the finite-value and norm
  // passes (masked words are opaque); mirror that rule.
  flare::ValidatorConfig validator_config = config.validator;
  if (config.secure_agg.enabled) {
    validator_config.check_finite = false;
    validator_config.norm_zscore_threshold = 0.0;
  }
  flare::UpdateValidator validator(validator_config);
  r.validator_reset_ms = median_ms([&] { validator.reset(traced.last_input, round); });
  double norm = 0.0;
  r.validator_score_ms =
      median_ms([&] { keep(validator.score(site, wire, &norm).ok() ? 1 : 0); });

  // Durability at this payload, whether or not the workload journals.
  {
    flare::RoundJournal journal(dir + "/replay.journal", config.journal_sync);
    (void)journal.open(config.job_id);
    std::vector<double> append, commit;
    for (int i = 0; i < kReplayCalls; ++i) {
      journal.round_open(round, {site});
      Clock::time_point start = Clock::now();
      journal.accepted(site, wire);
      append.push_back(ms_since(start));
      start = Clock::now();
      journal.commit(round);
      commit.push_back(ms_since(start));
    }
    r.journal_append_ms = median(append);
    r.journal_commit_ms = median(commit);
  }
  const flare::ModelPersistor persistor(dir + "/replay.cpk");
  const flare::Checkpoint checkpoint{config.job_id, round, traced.result.final_model,
                                     traced.result.history, {}};
  r.persistor_save_ms = median_ms([&] { persistor.save(checkpoint); });

  // A submit frame's loopback round trip through the reactor transport.
  {
    flare::TcpServer server(0, flare::Dispatcher([](const std::vector<std::uint8_t>&) {
                              return std::vector<std::uint8_t>(16, 0);
                            }));
    flare::TcpConnection connection("127.0.0.1", server.port());
    r.tcp_call_ms = median_ms([&] { keep(connection.call(submit_sealed).size()); });
  }
  return r;
}

Ledger build_ledger(const Shape& shape, const Episode& traced, const Replay& r) {
  const std::vector<core::TraceEvent>& events = traced.events;
  const double sites = static_cast<double>(shape.sites);

  // The timed rounds, less any whose spans the trace ring dropped: when it
  // overflows it keeps the newest events, and every span that starts after
  // the earliest retained end survived.
  const std::vector<std::int64_t>& ends = traced.round_end_trace_ns;
  const std::size_t last = ends.size() - 1;
  std::size_t first = static_cast<std::size_t>(traced.warmup - 1);
  if (traced.trace_dropped > 0) {
    std::int64_t earliest_end = std::numeric_limits<std::int64_t>::max();
    for (const core::TraceEvent& e : events) {
      earliest_end = std::min(earliest_end, e.ts_ns + e.dur_ns);
    }
    while (first < last && ends[first] < earliest_end) ++first;
  }
  if (first >= last) throw std::runtime_error("trace ring kept no whole round");
  const double n = static_cast<double>(last - first);
  const std::int64_t window_begin = ends[first];
  const std::int64_t window_end = ends[last];
  const double cpu_ms = static_cast<double>(traced.round_end_cpu_ns[last] -
                                            traced.round_end_cpu_ns[first]) /
                        1e6;

  // Self time: a span minus the children nested inside its interval.
  // (Manual complete-events such as server.round name the span that was
  // open when they were recorded as parent without lying inside it.)
  std::unordered_map<std::uint64_t, const core::TraceEvent*> by_id;
  for (const core::TraceEvent& e : events) by_id[e.id] = &e;
  std::unordered_map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> children;
  for (const core::TraceEvent& e : events) {
    const auto parent = by_id.find(e.parent);
    if (e.parent == 0 || parent == by_id.end()) continue;
    const core::TraceEvent& p = *parent->second;
    if (e.ts_ns < p.ts_ns || e.ts_ns + e.dur_ns > p.ts_ns + p.dur_ns) continue;
    children[e.parent].first += e.dur_ns;
    children[e.parent].second += e.cpu_ns;
  }
  std::map<std::string, SpanRow> rows;
  std::map<std::int64_t, double> slowest_by_round;
  std::vector<double> batch_ms, tcp_ms;
  for (const core::TraceEvent& e : events) {
    const std::string name = e.name;
    const double dur_ms = static_cast<double>(e.dur_ns) / 1e6;
    if (name == "bench.learner.train" && e.round > static_cast<std::int64_t>(first) &&
        e.round <= static_cast<std::int64_t>(last)) {
      double& slowest = slowest_by_round[e.round];
      slowest = std::max(slowest, dur_ms);
    }
    if (e.ts_ns < window_begin || e.ts_ns >= window_end) continue;
    const auto kids = children.find(e.id);
    const std::int64_t child_wall = kids == children.end() ? 0 : kids->second.first;
    const std::int64_t child_cpu = kids == children.end() ? 0 : kids->second.second;
    SpanRow& row = rows[name];
    row.count += 1;
    row.wall_ms += dur_ms;
    row.self_ms += static_cast<double>(e.dur_ns - child_wall) / 1e6;
    row.self_cpu_ms += static_cast<double>(e.cpu_ns - child_cpu) / 1e6;
    if (name == "train.batch") batch_ms.push_back(dur_ms);
    if (name == "tcp.call") tcp_ms.push_back(dur_ms);
  }
  const auto row = [&rows](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() ? SpanRow{} : it->second;
  };
  std::vector<double> slowest;
  for (const auto& [round, ms] : slowest_by_round) slowest.push_back(ms);
  double span_cpu_ms = 0.0;
  for (const auto& [name, totals] : rows) span_cpu_ms += totals.self_cpu_ms;

  // Replayed work that runs outside every span: envelope seal/open and
  // message decode on both ends, the outbound filters, and — in the
  // multiplexed simulator — the site's submit pack and seal (a threaded
  // client does those inside its client.submit span). The server's own
  // replayed work — contribution copy, task packing, validation, journaling
  // — runs inside server.submit/get_task, and ledger.replay_vs_span compares
  // it with their self time.
  const bool threaded = shape.site_workers == 0;
  const double unspanned_ms_per_round =
      sites * (r.seal_task_ms + r.open_task_ms + r.decode_task_ms + r.open_submit_ms +
               r.decode_submit_ms + r.filter_dp_ms + r.filter_mask_ms +
               (threaded ? 0.0 : r.pack_submit_ms + r.seal_submit_ms));
  const bool durable = traced.config.journal;
  const double server_replay_ms_per_round =
      sites * (r.copy_submit_ms + r.validator_score_ms + r.pack_task_ms +
               (durable ? r.journal_append_ms : 0.0)) +
      r.validator_reset_ms + (durable ? r.journal_commit_ms : 0.0);
  const double server_self_ms = row("server.submit").self_ms +
                                row("server.get_task").self_ms +
                                row("server.register").self_ms;

  Ledger ledger;
  const auto add = [&ledger](const char* name, double value, const char* unit) {
    ledger.metrics.push_back(Metric{name, value, unit});
  };
  add("secure_channel.seal.ms_per_round", sites * (r.seal_task_ms + r.seal_submit_ms), "ms");
  add("secure_channel.open.ms_per_round", sites * (r.open_task_ms + r.open_submit_ms), "ms");
  add("secure_channel.mb_per_round",
      sites * (r.task_frame_bytes + r.submit_frame_bytes) / 1e6, "MB");
  add("messages.encode.ms_per_round", sites * (r.pack_task_ms + r.pack_submit_ms), "ms");
  add("messages.decode.ms_per_round", sites * (r.decode_task_ms + r.decode_submit_ms),
      "ms");
  add("validator.score.ms_per_round", sites * r.validator_score_ms, "ms");
  add("filters.dp.ms_per_round", sites * r.filter_dp_ms, "ms");
  add("filters.mask.ms_per_round", sites * r.filter_mask_ms, "ms");
  add("aggregator.accept.ms_per_round", row("bench.aggregator.accept").wall_ms / n, "ms");
  add("aggregator.aggregate.ms_per_round", row("bench.aggregator.aggregate").wall_ms / n,
      "ms");
  add("learner.train.ms_per_round", row("bench.learner.train").wall_ms / n, "ms");
  add("learner.train.ms_slowest_site", median(slowest), "ms");
  add("journal.append.ms_per_call", r.journal_append_ms, "ms");
  add("journal.commit.ms_per_call", r.journal_commit_ms, "ms");
  add("persistor.save.ms_per_call", r.persistor_save_ms, "ms");
  add("tcp.call.ms_per_call", r.tcp_call_ms, "ms");
  add("server.submit.ms_per_round", row("server.submit").self_ms / n, "ms");
  add("server.get_task.ms_per_round", row("server.get_task").self_ms / n, "ms");
  add("server.frames_per_round",
      static_cast<double>(row("server.register").count + row("server.get_task").count +
                          row("server.submit").count + row("server.unmask").count) /
          n,
      "count");
  add("server.polls_per_round", static_cast<double>(row("server.get_task").count) / n,
      "count");
  add("ledger.cpu_coverage",
      (span_cpu_ms + n * unspanned_ms_per_round) / cpu_ms, "ratio");
  add("ledger.replay_vs_span", server_replay_ms_per_round / (server_self_ms / n), "ratio");

  // The printed ledger: span self time, then the replayed layers.
  std::string& t = ledger.table;
  t += "ledger: " + shape.name + ", rounds " + std::to_string(first + 1) + ".." +
       std::to_string(last) + " (n=" + std::to_string(last - first) + "), trace events " +
       std::to_string(events.size()) + " (dropped " + std::to_string(traced.trace_dropped) +
       ")\n";
  char header[200];
  std::snprintf(header, sizeof(header), "  %-30s %10s %12s %12s %12s\n", "span",
                "calls/rnd", "wall ms/rnd", "self ms/rnd", "self cpu/rnd");
  t += header;
  std::vector<std::pair<std::string, SpanRow>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_cpu_ms > b.second.self_cpu_ms;
  });
  for (const auto& [name, totals] : sorted) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-30s %10.2f %12.3f %12.3f %12.3f\n", name.c_str(),
                  static_cast<double>(totals.count) / n, totals.wall_ms / n,
                  totals.self_ms / n, totals.self_cpu_ms / n);
    t += line;
  }
  std::snprintf(header, sizeof(header), "  %-30s %10s %12s %12s\n", "replayed call",
                "ms/call", "calls/rnd", "ms/rnd");
  t += header;
  const auto replay_row = [&t](const char* name, double ms, double calls) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %10.3f %12.0f %12.3f\n", name, ms, calls,
                  ms * calls);
    t += line;
  };
  replay_row("pack(TaskMessage)", r.pack_task_ms, sites);
  replay_row("seal(task)", r.seal_task_ms, sites);
  replay_row("open(task)", r.open_task_ms, sites);
  replay_row("decode_task", r.decode_task_ms, sites);
  replay_row("filters: dp stage", r.filter_dp_ms, sites);
  replay_row("filters: mask stage", r.filter_mask_ms, sites);
  replay_row("pack(SubmitUpdateRequest)", r.pack_submit_ms, sites);
  replay_row("seal(submit)", r.seal_submit_ms, sites);
  replay_row("open(submit)", r.open_submit_ms, sites);
  replay_row("decode_submit", r.decode_submit_ms, sites);
  replay_row("Dxo copy (server, per submit)", r.copy_submit_ms, sites);
  replay_row("UpdateValidator::score", r.validator_score_ms, sites);
  replay_row("UpdateValidator::reset", r.validator_reset_ms, 1.0);
  replay_row("RoundJournal::accepted", r.journal_append_ms, durable ? sites : 0.0);
  replay_row("RoundJournal::commit", r.journal_commit_ms, durable ? 1.0 : 0.0);
  replay_row("ModelPersistor::save", r.persistor_save_ms, durable ? 1.0 : 0.0);
  replay_row("TcpConnection::call(submit)", r.tcp_call_ms, shape.tcp ? sites : 0.0);
  char summary[320];
  std::snprintf(summary, sizeof(summary),
                "  process cpu %.3f ms/rnd = span self cpu %.3f + unspanned replay %.3f "
                "+ unattributed %.3f\n"
                "  train.batch p50 %.3f ms (%zu), tcp.call p50 %.3f ms (%zu)\n",
                cpu_ms / n, span_cpu_ms / n, unspanned_ms_per_round,
                cpu_ms / n - span_cpu_ms / n - unspanned_ms_per_round,
                median(batch_ms), batch_ms.size(), median(tcp_ms), tcp_ms.size());
  t += summary;
  return ledger;
}

}  // namespace roundbench
