// bench_round — the round-cost benchmark program (see README.md).
//
//   bench_round --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--trace-out <file>] [--scratch <dir>]
//
// A run first sets the workload up twice in a child process (set-up probes
// of two rounds each), then measures one federation sized to --seconds
// of rounds in this process. With --trace 1 it measures an untraced, a
// traced and another untraced federation of a third of that length each and
// replays the last round's layer calls. The report goes to standard output; its last line is one
// JSON object with the keys correct, attempted, failed and metrics. Exit
// status: 0 when every check passed, 1 when one failed, 2 on a usage error.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/logging.h"
#include "core/parallel.h"
#include "roundbench.h"

extern char** environ;

namespace {

using namespace roundbench;

constexpr int kProbes = 2;
constexpr std::int64_t kMinTimedRounds = 6;
constexpr std::int64_t kMaxTimedRounds = 4000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
  std::string scratch = ".bench_build/scratch";
  int probes = 0;  // > 0: child mode, run this many set-up probes only
};

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_round: %s\n"
               "usage: bench_round --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-out <file>] [--scratch <dir>]\n"
               "workloads:",
               problem.c_str());
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else if (flag == "--probes") {
        args.probes = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

/// Shortest text that reads back as the same double: every digit measured.
std::string number(double value) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

/// What the set-up probes report back to the measuring process.
struct ProbeReport {
  std::vector<double> setup_s, prepare_ms, round_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
};

/// Child mode: runs the probes and prints one line per probe and failure.
int run_probes(Workload& workload, const Args& args, const std::string& scratch) {
  for (int i = 0; i < args.probes; ++i) {
    EpisodeOptions options;
    options.timed_rounds = 1;
    options.warmup = 1;
    options.check = false;  // the measured federation carries the reference checks
    const Episode probe = run_episode(workload, options, scratch);
    std::printf("probe %.9f %.6f %.6f %lld %lld\n", probe.setup_s, probe.prepare_ms,
                median(probe.round_ms), static_cast<long long>(probe.attempted),
                static_cast<long long>(probe.failed));
    for (const std::string& f : probe.failures) std::printf("failure %s\n", f.c_str());
  }
  return 0;
}

/// Runs the probes in a child process of this binary, so the measured
/// federation is the first in this process and its peak RSS is its own
/// rather than the allocator's high-water mark over earlier set-ups.
ProbeReport spawn_probes(const Args& args) {
  ProbeReport report;
  std::vector<std::string> argv_text = {
      "bench_round", "--workload", args.workload,        "--seed",
      std::to_string(args.seed), "--seconds", number(args.seconds), "--trace",
      "0",         "--scratch", args.scratch,           "--probes",
      std::to_string(kProbes)};
  if (args.smoke) argv_text.push_back("--smoke");
  std::vector<char*> child_argv;
  for (std::string& s : argv_text) child_argv.push_back(s.data());
  child_argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    report.failures.push_back("probe: pipe failed");
    return report;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, child_argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (spawned == 0) {
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0) output.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    report.failures.push_back("probe: child process failed");
  }
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "probe") {
      double setup = 0, prepare = 0, round = 0;
      std::int64_t attempted = 0, failed = 0;
      fields >> setup >> prepare >> round >> attempted >> failed;
      report.setup_s.push_back(setup);
      report.prepare_ms.push_back(prepare);
      report.round_ms.push_back(round);
      report.attempted += attempted;
      report.failed += failed;
    } else if (kind == "failure") {
      report.failures.push_back("probe: " + line.substr(8));
    }
  }
  if (report.setup_s.size() != static_cast<std::size_t>(kProbes)) {
    report.failures.push_back("probe: " + std::to_string(report.setup_s.size()) + " of " +
                              std::to_string(kProbes) + " probes reported");
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  core::LogConfig::instance().set_threshold(core::LogLevel::kWarn);

  // Budgets are explicit, never read from the environment: one compute
  // thread (no kernel helper threads) and at most cores - 1 site workers,
  // so the sites plus the admin thread never exceed the host's cores.
  HostContext host = detect_host();
  cppflare::core::set_compute_threads(1);
  host.compute_threads = 1;
  std::int64_t workers = 3;
  if (workers > host.cores - 1) {
    const std::int64_t clamped = std::max(1, host.cores - 1);
    host.clamps.push_back("site_workers 3 -> " + std::to_string(clamped));
    workers = clamped;
  }
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.smoke, workers);
  if (!workload) return usage("unknown workload '" + args.workload + "'");
  const Shape& shape = workload->shape();
  host.site_workers = shape.site_workers > 0 ? shape.site_workers : shape.sites;
  if (shape.site_workers == 0 && shape.sites + 1 > host.cores) {
    host.clamps.push_back(std::to_string(shape.sites) +
                          " site threads + admin exceed the cores (not clamped)");
  }
  const std::string scratch =
      args.scratch + "/" + shape.name + "-" + std::to_string(getpid());
  if (args.probes > 0) {
    const int status = run_probes(*workload, args, scratch);
    std::error_code ignored;
    std::filesystem::remove_all(scratch, ignored);
    return status;
  }

  // Set-up probes give setup_s its repeats, and their second round's time
  // sizes the measured federation to --seconds (a first round can be far
  // faster than the rest: all sites start it at once).
  ProbeReport probes;
  if (!args.smoke) probes = spawn_probes(args);
  std::vector<double> setups = probes.setup_s;
  std::vector<double> prepares = probes.prepare_ms;
  std::int64_t attempted = probes.attempted;
  std::int64_t failed = probes.failed;
  std::vector<std::string> failures = probes.failures;
  std::vector<std::string> detail;
  std::vector<double> lags;
  const auto account = [&](const Episode& e, const char* label) {
    attempted += e.attempted;
    failed += e.failed;
    setups.push_back(e.setup_s);
    prepares.push_back(e.prepare_ms);
    for (const AdminCall& call : e.admin) lags.push_back(call.lag_ms);
    for (const std::string& f : e.failures) failures.push_back(std::string(label) + ": " + f);
    for (const std::string& d : e.detail) detail.push_back(std::string(label) + ": " + d);
  };
  std::int64_t timed = 1;
  if (!args.smoke) {
    const double window_ms = 1000.0 * args.seconds / (args.trace ? 3.0 : 1.0);
    const double estimate = median(probes.round_ms);
    timed = estimate > 0 ? static_cast<std::int64_t>(std::ceil(window_ms / estimate))
                         : kMinTimedRounds;
    timed = std::clamp(timed, kMinTimedRounds, kMaxTimedRounds);
  }

  EpisodeOptions options;
  options.timed_rounds = timed;
  const Episode measured = run_episode(*workload, options, scratch);
  account(measured, "measured");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  host.payload_floats = measured.result.final_model.total_numel();

  std::vector<Metric> metrics;
  std::string ledger_table;
  if (args.trace == 0) {
    std::vector<double> admin_ms;
    for (const AdminCall& call : measured.admin) admin_ms.push_back(call.latency_ms);
    const double n = static_cast<double>(measured.round_ms.size());
    metrics = {
        {"setup_s", median(setups), "s"},
        {"round_ms_p50", quantile(measured.round_ms, 0.50), "ms"},
        {"round_ms_p75", quantile(measured.round_ms, 0.75), "ms"},
        {"cpu_ms_per_round", n > 0 ? measured.cpu_ms / n : 0.0, "ms"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"admin_ms_p50", quantile(admin_ms, 0.50), "ms"},
    };
  } else {
    // Untraced, traced, untraced: the traced federation's round time is
    // compared with the mean of its neighbours, which cancels host drift
    // that is linear over the run.
    options.trace = true;
    options.trace_out = args.trace_out;
    const Episode traced = run_episode(*workload, options, scratch);
    account(traced, "traced");
    options.trace = false;
    const Episode after = run_episode(*workload, options, scratch);
    account(after, "measured");
    if (failures.empty()) {
      try {
        const std::string replay_dir = scratch + "/replay";
        std::filesystem::create_directories(replay_dir);
        Ledger ledger = build_ledger(shape, traced, replay_round(traced, replay_dir));
        metrics = std::move(ledger.metrics);
        ledger_table = std::move(ledger.table);
        std::vector<double> admin_ms;
        for (const Episode* e : {&measured, &after}) {
          for (const AdminCall& call : e->admin) admin_ms.push_back(call.latency_ms);
        }
        const double untraced_p50 =
            (median(measured.round_ms) + median(after.round_ms)) / 2.0;
        metrics.push_back({"data.prepare.ms", median(prepares), "ms"});
        metrics.push_back({"admin.ms_p95", quantile(admin_ms, 0.95), "ms"});
        metrics.push_back(
            {"admin.generator_lag_ms_max",
             lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end()), "ms"});
        metrics.push_back(
            {"trace.overhead_ratio", median(traced.round_ms) / untraced_p50, "ratio"});
      } catch (const std::exception& e) {
        failures.push_back(std::string("ledger: ") + e.what());
      }
    }
  }
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);

  std::printf("# host %s\n", host.json().c_str());
  std::printf("# workload %s seed %llu trace %d%s: measured rounds n=%zu after %lld "
              "warm-up, admin calls n=%zu, set-ups %zu\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              args.smoke ? " (smoke)" : "", measured.round_ms.size(),
              static_cast<long long>(measured.warmup), measured.admin.size(),
              setups.size());
  for (const std::string& line : detail) std::printf("# %s\n", line.c_str());
  for (const std::string& line : failures) std::printf("# FAILED %s\n", line.c_str());
  if (!ledger_table.empty()) std::printf("%s", ledger_table.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
