// Privacy runtime bench.
//
// Three measurements, all over the 8-site loopback-TCP federation with a
// trivial nudge learner so the numbers isolate the privacy machinery, not
// training compute:
//
//   1. masked vs unmasked rounds/s on a clean run — the steady-state cost
//      of quantize + pairwise masking + modular aggregation;
//   2. the same comparison with one site crashing mid-run, so every
//      post-crash masked round detours through the unmask-recovery wave —
//      both variants pay the round deadline, the delta is recovery itself;
//   3. a DP noise grid (threaded transport): final-model RMSE against the
//      noiseless reference and the accountant's epsilon spend per sigma,
//      epsilon reported as -1 when infinite (noise_multiplier == 0).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "flare/simulator.h"

namespace {

using namespace cppflare;

nn::StateDict tiny_model() {
  nn::StateDict d;
  d.insert("w", {{16}, std::vector<float>(16, 0.0f)});
  return d;
}

class NudgeLearner : public flare::Learner {
 public:
  NudgeLearner(std::string site, float target, std::int64_t crash_round)
      : site_(std::move(site)), target_(target), crash_round_(crash_round) {}

  flare::Dxo train(const flare::Dxo& global,
                   const flare::FLContext& ctx) override {
    if (crash_round_ >= 0 && ctx.current_round >= crash_round_) {
      throw Error("bench: site crashed mid-run");
    }
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    flare::Dxo update(flare::DxoKind::kWeights, updated);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t crash_round_;
};

struct RunResult {
  double rounds_per_sec = 0.0;
  double wall_seconds = 0.0;
  double epsilon = 0.0;
  nn::StateDict final_model;
};

struct RunSpec {
  std::int64_t rounds = 20;
  bool masked = false;
  bool use_tcp = true;
  std::int64_t crash_index = -1;   // site index that dies, -1 for none
  std::int64_t crash_round = -1;
  double dp_noise = -1.0;          // >= 0 enables DP at this multiplier
};

RunResult run_federation(const RunSpec& spec) {
  flare::SimulatorConfig config;
  config.job_id = "bench-privacy";
  config.num_clients = 8;
  config.num_rounds = spec.rounds;
  config.use_tcp = spec.use_tcp;
  config.compute_threads = -1;
  if (spec.crash_index >= 0) {
    // A crashed site never answers again; the round must close on the
    // deadline with the 7 survivors (and, when masked, recover their sum).
    config.min_clients = 4;
    config.round_deadline_ms = 300;
  }
  config.secure_agg.enabled = spec.masked;
  config.secure_agg.dealer_seed = 0xbe9c;
  if (spec.dp_noise >= 0.0) {
    config.dp.enabled = true;
    config.dp.clip_norm = 8.0;
    config.dp.noise_multiplier = spec.dp_noise;
    config.dp.delta = 1e-5;
  }
  // Uniform FedAvg: server-side sample weighting is rejected under masking
  // (masks only cancel through an unweighted sum), and the unmasked arms
  // must aggregate identically to stay comparable.
  flare::SimulatorRunner runner(
      config, tiny_model(), std::make_unique<flare::FedAvgAggregator>(false),
      [&spec](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(
            name, static_cast<float>(i),
            i == spec.crash_index ? spec.crash_round : -1);
      });
  const flare::SimulationResult result = runner.run();
  if (result.aborted) {
    std::fprintf(stderr, "federation aborted: %s\n",
                 result.abort_reason.c_str());
    std::exit(1);
  }
  RunResult r;
  r.wall_seconds = result.wall_seconds;
  r.rounds_per_sec = static_cast<double>(spec.rounds) / result.wall_seconds;
  r.epsilon = result.dp_epsilon_spent;
  r.final_model = result.final_model;
  return r;
}

double rmse(const nn::StateDict& a, const nn::StateDict& b) {
  double sum = 0.0;
  std::int64_t n = 0;
  auto ib = b.entries().begin();
  for (auto ia = a.entries().begin(); ia != a.entries().end(); ++ia, ++ib) {
    for (std::size_t i = 0; i < ia->second.values.size(); ++i) {
      const double d = static_cast<double>(ia->second.values[i]) -
                       static_cast<double>(ib->second.values[i]);
      sum += d * d;
      ++n;
    }
  }
  return std::sqrt(sum / static_cast<double>(n));
}

double json_eps(double epsilon) {
  return std::isfinite(epsilon) ? epsilon : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  bench::quiet_logs();
  // A crashed site logs a warning per missed poll; keep only errors.
  core::LogConfig::instance().set_threshold(core::LogLevel::kError);

  const std::int64_t rounds = 20;
  std::printf("Privacy runtime: 8-site TCP federation, %lld rounds\n",
              static_cast<long long>(rounds));
  std::printf("host: %s\n", bench::host_context_json().c_str());

  // 1. Steady-state masking cost.
  RunSpec plain_spec;
  plain_spec.rounds = rounds;
  const RunResult plain = run_federation(plain_spec);
  RunSpec masked_spec = plain_spec;
  masked_spec.masked = true;
  const RunResult masked = run_federation(masked_spec);
  const double mask_overhead = plain.rounds_per_sec / masked.rounds_per_sec;
  std::printf("  unmasked       : %7.1f rounds/s (%.3f s)\n",
              plain.rounds_per_sec, plain.wall_seconds);
  std::printf("  masked         : %7.1f rounds/s (%.3f s)  overhead %.2fx\n",
              masked.rounds_per_sec, masked.wall_seconds, mask_overhead);

  // 2. Recovery cost: one site dies at round 5, the rest of the run closes
  //    on the deadline — masked rounds additionally run the unmask wave.
  RunSpec drop_plain_spec = plain_spec;
  drop_plain_spec.crash_index = 7;
  drop_plain_spec.crash_round = 5;
  const RunResult drop_plain = run_federation(drop_plain_spec);
  RunSpec drop_masked_spec = drop_plain_spec;
  drop_masked_spec.masked = true;
  const RunResult drop_masked = run_federation(drop_masked_spec);
  const double recovery_overhead =
      drop_plain.rounds_per_sec / drop_masked.rounds_per_sec;
  std::printf("  1-drop unmasked: %7.1f rounds/s (%.3f s)\n",
              drop_plain.rounds_per_sec, drop_plain.wall_seconds);
  std::printf("  1-drop masked  : %7.1f rounds/s (%.3f s)  overhead %.2fx\n",
              drop_masked.rounds_per_sec, drop_masked.wall_seconds,
              recovery_overhead);

  // 3. DP sigma vs accuracy grid (threaded transport for speed). RMSE is
  //    against the sigma=0 run, which is pure clipping.
  const std::vector<double> sigmas = {0.0, 0.5, 1.0, 2.0};
  std::vector<RunResult> grid;
  std::printf("  dp grid (clip 8.0, delta 1e-5, vs sigma=0 reference):\n");
  for (const double sigma : sigmas) {
    RunSpec dp_spec;
    dp_spec.rounds = 10;
    dp_spec.use_tcp = false;
    dp_spec.dp_noise = sigma;
    grid.push_back(run_federation(dp_spec));
  }
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    const double err = rmse(grid[i].final_model, grid[0].final_model);
    if (std::isfinite(grid[i].epsilon)) {
      std::printf("    sigma %.1f: rmse %8.5f  epsilon %8.3f\n", sigmas[i],
                  err, grid[i].epsilon);
    } else {
      std::printf("    sigma %.1f: rmse %8.5f  epsilon inf\n", sigmas[i], err);
    }
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"host\": %s,\n"
                 "  \"sites\": 8,\n"
                 "  \"rounds\": %lld,\n"
                 "  \"transport\": \"tcp\",\n"
                 "  \"unmasked_rounds_per_sec\": %.3f,\n"
                 "  \"masked_rounds_per_sec\": %.3f,\n"
                 "  \"masking_overhead_factor\": %.3f,\n"
                 "  \"drop_unmasked_rounds_per_sec\": %.3f,\n"
                 "  \"drop_masked_rounds_per_sec\": %.3f,\n"
                 "  \"recovery_overhead_factor\": %.3f,\n"
                 "  \"dp_grid\": [\n",
                 bench::host_context_json().c_str(),
                 static_cast<long long>(rounds), plain.rounds_per_sec,
                 masked.rounds_per_sec, mask_overhead,
                 drop_plain.rounds_per_sec, drop_masked.rounds_per_sec,
                 recovery_overhead);
    for (std::size_t i = 0; i < sigmas.size(); ++i) {
      std::fprintf(f,
                   "    {\"noise_multiplier\": %.2f, \"rmse_vs_clip_only\": "
                   "%.6f, \"epsilon\": %.4f}%s\n",
                   sigmas[i], rmse(grid[i].final_model, grid[0].final_model),
                   json_eps(grid[i].epsilon),
                   i + 1 < sigmas.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
