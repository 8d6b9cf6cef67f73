// Coordinator scaling bench.
//
// Measures what the reactor transport + long-poll dispatch + the one
// pooled site driver buy at scale: rounds/s, peak file-descriptor count,
// and peak thread count for 8/64-site loopback-TCP federations (a pool
// worker per site, since a TCP send holds its worker, against the epoll
// reactor) and 64/256-site in-process federations (all sites on 8 pool
// workers). Also re-measures the faulty-run overhead factor of the standard
// 8-site fault plan, whose pre-reactor baseline was 4.16x
// (BENCH_faults.json): long-poll dispatch removes the polling storms that
// amplified injected delays. The JSON records the host it ran on.
#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "flare/hierarchy.h"
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
  NudgeLearner(std::string site, float target)
      : site_(std::move(site)), target_(target) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext&) override {
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
};

std::int64_t count_open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  std::int64_t n = 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n - 2;  // "." and ".."
}

std::int64_t count_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  std::int64_t threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::atoll(line + 8);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

/// Samples /proc/self every few ms on a background thread and keeps the
/// maxima — the "peak fds / peak threads" columns of BENCH_scale.json.
class PeakSampler {
 public:
  PeakSampler() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      sample();
    });
  }
  ~PeakSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  std::int64_t peak_fds() const { return peak_fds_.load(); }
  std::int64_t peak_threads() const { return peak_threads_.load(); }

 private:
  void sample() {
    const std::int64_t fds = count_open_fds();
    const std::int64_t threads = count_threads();
    if (fds > peak_fds_.load()) peak_fds_.store(fds);
    if (threads > peak_threads_.load()) peak_threads_.store(threads);
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> peak_fds_{0};
  std::atomic<std::int64_t> peak_threads_{0};
  std::thread thread_;
};

struct ScaleResult {
  std::int64_t sites = 0;
  std::int64_t rounds = 0;
  std::int64_t site_workers = 0;
  bool tcp = false;
  double rounds_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::int64_t peak_fds = 0;
  std::int64_t peak_threads = 0;
};

ScaleResult run_scale(std::int64_t sites, std::int64_t rounds, bool tcp,
                      std::int64_t site_workers, bool faulty = false) {
  flare::SimulatorConfig config;
  config.num_clients = sites;
  config.num_rounds = rounds;
  config.use_tcp = tcp;
  config.site_workers = site_workers;
  config.compute_threads = -1;
  // Retry schedule proportionate to loopback RTTs (the default initial
  // delay is WAN-scaled). Applied to the clean and faulty runs alike so
  // the overhead factor isolates what the fault plan costs the stack,
  // not what a mis-scaled sleep costs the bench.
  config.client_retry = {1, 100, 2.0, 5, 0.2, /*fast_first_retry=*/true};
  std::unique_ptr<flare::Aggregator> aggregator;
  if (sites >= 256) {
    aggregator = std::make_unique<flare::HierarchicalFedAvgAggregator>(true, 16);
  } else {
    aggregator = std::make_unique<flare::FedAvgAggregator>(true);
  }
  flare::SimulatorRunner runner(
      config, tiny_model(), std::move(aggregator),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i % 7));
      });
  if (faulty) {
    runner.set_fault_planner(
        [](std::int64_t index, const std::string&,
           std::int64_t incarnation) -> std::optional<flare::FaultPlan> {
          flare::FaultPlan plan;
          plan.seed = 0xbe7c4 + static_cast<std::uint64_t>(index) * 131 +
                      static_cast<std::uint64_t>(incarnation);
          plan.drop_prob = 0.1;
          plan.delay_prob = 0.1;
          plan.delay_ms = 1;
          if (index == 3 && incarnation == 0) plan.disconnect_on_call = 9;
          return plan;
        });
  }
  PeakSampler sampler;
  const flare::SimulationResult result = runner.run();
  if (result.aborted ||
      result.history.size() != static_cast<std::size_t>(rounds)) {
    std::fprintf(stderr, "federation did not complete cleanly (%lld sites)\n",
                 static_cast<long long>(sites));
    std::exit(1);
  }
  ScaleResult r;
  r.sites = sites;
  r.rounds = rounds;
  r.site_workers = site_workers;
  r.tcp = tcp;
  r.wall_seconds = result.wall_seconds;
  r.rounds_per_sec = static_cast<double>(rounds) / result.wall_seconds;
  r.peak_fds = sampler.peak_fds();
  r.peak_threads = sampler.peak_threads();
  return r;
}

void print_result(const ScaleResult& r) {
  std::printf(
      "  %4lld sites %-7s workers=%-3lld : %8.1f rounds/s  (%.3f s)  "
      "peak_fds=%lld  peak_threads=%lld\n",
      static_cast<long long>(r.sites), r.tcp ? "tcp" : "inproc",
      static_cast<long long>(r.site_workers), r.rounds_per_sec, r.wall_seconds,
      static_cast<long long>(r.peak_fds),
      static_cast<long long>(r.peak_threads));
}

void append_json(std::string& out, const ScaleResult& r, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"sites\": %lld, \"rounds\": %lld, \"transport\": "
                "\"%s\", \"site_workers\": %lld, \"rounds_per_sec\": %.3f, "
                "\"wall_seconds\": %.3f, \"peak_fds\": %lld, "
                "\"peak_threads\": %lld}%s\n",
                static_cast<long long>(r.sites),
                static_cast<long long>(r.rounds), r.tcp ? "tcp" : "inproc",
                static_cast<long long>(r.site_workers), r.rounds_per_sec,
                r.wall_seconds, static_cast<long long>(r.peak_fds),
                static_cast<long long>(r.peak_threads), last ? "" : ",");
  out += buf;
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
  core::LogConfig::instance().set_threshold(core::LogLevel::kError);

  std::printf("Coordinator scaling: reactor transport + long-poll dispatch\n");
  std::printf("host: %s\n", bench::host_context_json().c_str());
  std::vector<ScaleResult> results;
  // Loopback TCP against the epoll reactor: one pool worker per site.
  results.push_back(run_scale(8, 30, /*tcp=*/true, /*site_workers=*/0));
  print_result(results.back());
  results.push_back(run_scale(64, 10, /*tcp=*/true, /*site_workers=*/0));
  print_result(results.back());
  // In-process: all sites on 8 pool workers.
  results.push_back(run_scale(64, 10, /*tcp=*/false, /*site_workers=*/8));
  print_result(results.back());
  results.push_back(run_scale(256, 5, /*tcp=*/false, /*site_workers=*/8));
  print_result(results.back());

  std::printf("\nFault overhead re-measurement (pre-reactor baseline 4.16x)\n");
  const ScaleResult clean = run_scale(8, 30, /*tcp=*/true, 0, /*faulty=*/false);
  const ScaleResult faulty = run_scale(8, 30, /*tcp=*/true, 0, /*faulty=*/true);
  const double overhead = clean.rounds_per_sec / faulty.rounds_per_sec;
  std::printf("  clean : %8.1f rounds/s\n", clean.rounds_per_sec);
  std::printf("  faulty: %8.1f rounds/s\n", faulty.rounds_per_sec);
  std::printf("  overhead factor: %.2fx (baseline 4.16x)\n", overhead);

  if (json_path != nullptr) {
    std::string json =
        "{\n  \"host\": " + bench::host_context_json() + ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      append_json(json, results[i], i + 1 == results.size());
    }
    json += "  ],\n";
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "  \"fault_overhead\": {\"sites\": 8, \"rounds\": 30, "
        "\"fault_plan\": {\"drop_prob\": 0.1, \"delay_prob\": 0.1, "
        "\"delay_ms\": 1, \"disconnects\": 1}, "
        "\"client_retry\": {\"initial_ms\": 1, \"max_ms\": 100, "
        "\"multiplier\": 2.0, \"max_retries\": 5, \"jitter\": 0.2, "
        "\"fast_first_retry\": true}, "
        "\"clean_rounds_per_sec\": %.3f, \"faulty_rounds_per_sec\": %.3f, "
        "\"overhead_factor\": %.3f, "
        "\"pre_reactor\": {\"clean_rounds_per_sec\": 118.622, "
        "\"faulty_rounds_per_sec\": 28.515, \"overhead_factor\": 4.160}}\n}\n",
        clean.rounds_per_sec, faulty.rounds_per_sec, overhead);
    json += buf;
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
