// Types shared by the bench_round translation units (see README.md).
//
// The benchmark reaches the system only through its public entry points:
// SimulatorConfig/SimulatorRunner, the Learner and Aggregator interfaces
// (wrapped by timing decorators), the server's round observer, event bus
// and metric snapshot, the job registry's admin console, and the layers'
// own public functions (called again outside the federation for replay).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.h"
#include "flare/simulator.h"

namespace roundbench {

namespace flare = cppflare::flare;
namespace nn = cppflare::nn;
namespace core = cppflare::core;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The simulator's name for site `index` (0-based).
inline std::string site_name(std::int64_t index) {
  return "site-" + std::to_string(index + 1);
}

/// The fixed shape of a workload's federation.
struct Shape {
  std::string name;
  std::int64_t sites = 0;
  /// Pool threads the sites are multiplexed on; 0 = one thread per site.
  std::int64_t site_workers = 0;
  bool tcp = false;
  /// Rounds at the start of a federation excluded from every statistic.
  std::int64_t warmup_rounds = 2;
};

/// One federation's inputs, rebuilt from the seed for every set-up.
struct Inputs {
  flare::SimulatorConfig config;
  nn::StateDict initial_model;
  std::unique_ptr<flare::Aggregator> aggregator;
  flare::SimulatorRunner::LearnerFactory learners;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const Shape& shape() const = 0;

  /// Generates one federation's inputs (data, model initialization,
  /// per-site payloads). `dir` is an empty directory the federation may
  /// write its checkpoint and journal to.
  virtual Inputs prepare(const std::string& dir) = 0;

  /// Checks a finished federation against a reference computed outside it
  /// from the inputs of the last prepare(); `last_input` is the global model
  /// the last round started from. Appends one line per failure; `detail`
  /// receives informational lines for the report.
  virtual void check(const flare::SimulationResult& result, std::int64_t rounds,
                     const nn::StateDict& last_input, std::vector<std::string>& failures,
                     std::vector<std::string>& detail) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload; nullptr for an unknown name. `site_workers` replaces
/// the shape's pool size for multiplexed workloads (host clamp). `smoke`
/// swaps every payload for a small one so a full pass takes seconds.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke, std::int64_t site_workers);

/// One admin console call of the open-loop generator.
struct AdminCall {
  std::int64_t scheduled_ns = 0;  // steady clock
  double latency_ms = 0.0;        // completion minus scheduled send time
  double lag_ms = 0.0;            // actual minus scheduled send time
  bool ok = false;
};

struct EpisodeOptions {
  std::int64_t timed_rounds = 1;
  /// Warm-up rounds (at least 1); -1 = the shape's.
  std::int64_t warmup = -1;
  bool trace = false;
  /// When tracing, also write the timeline as Chrome-trace JSON here.
  std::string trace_out;
  /// Run the workload's reference check (the generic checks always run).
  bool check = true;
};

/// One federation run from a cold set-up to its last round.
struct Episode {
  std::int64_t rounds = 0;
  std::int64_t warmup = 0;
  double setup_s = 0.0;     // episode start to the first round start
  double prepare_ms = 0.0;  // input generation inside the set-up
  std::vector<double> round_ms;  // intervals between timed round ends
  double cpu_ms = 0.0;           // process CPU over the timed rounds
  /// Per round end: tracer clock and process CPU.
  std::vector<std::int64_t> round_end_trace_ns;
  std::vector<std::int64_t> round_end_cpu_ns;
  std::vector<AdminCall> admin;  // calls scheduled inside the timed window
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> detail;
  flare::SimulationResult result;
  flare::SimulatorConfig config;
  nn::StateDict last_input;  // the global model the last round started from
  flare::Dxo last_update;    // site-1's last-round learner output, when traced
  std::vector<core::TraceEvent> events;
  std::int64_t trace_dropped = 0;
};

/// Runs one federation of `workload` with warm-up plus
/// `options.timed_rounds` rounds, the admin load beside it, and every
/// correctness check. Files go under `scratch`.
Episode run_episode(Workload& workload, const EpisodeOptions& options,
                    const std::string& scratch);

/// Per-call costs of the layers' public functions, replayed on the last
/// round's payloads outside the federation (median of 5 calls each).
struct Replay {
  double pack_task_ms = 0, decode_task_ms = 0;
  double pack_submit_ms = 0, decode_submit_ms = 0;
  double seal_task_ms = 0, open_task_ms = 0;
  double seal_submit_ms = 0, open_submit_ms = 0;
  double task_frame_bytes = 0, submit_frame_bytes = 0;
  double copy_submit_ms = 0;
  double validator_score_ms = 0, validator_reset_ms = 0;
  double filter_dp_ms = 0, filter_mask_ms = 0;
  double journal_append_ms = 0, journal_commit_ms = 0;
  double persistor_save_ms = 0;
  double tcp_call_ms = 0;
};

Replay replay_round(const Episode& traced, const std::string& dir);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of a traced episode plus the printable ledger table.
struct Ledger {
  std::vector<Metric> metrics;
  std::string table;
};

Ledger build_ledger(const Shape& shape, const Episode& traced, const Replay& replay);

/// Process user+system CPU time so far, in ns.
std::int64_t process_cpu_ns();

/// Where a run happened. Numbers from different hosts, builds or payloads
/// are not a comparison; every result carries this block.
struct HostContext {
  int cores = 0;  // CPUs in this process's affinity mask
  bool sha_ni = false;
  bool avx2 = false;
  bool avx512f = false;
  std::string build_type;
  std::string compiler;
  std::string git_sha;
  std::int64_t compute_threads = 0;
  std::int64_t site_workers = 0;
  std::int64_t payload_floats = 0;
  /// One entry per budget the host's core count forced below its default.
  std::vector<std::string> clamps;

  std::string json() const;
};

HostContext detect_host();

}  // namespace roundbench
