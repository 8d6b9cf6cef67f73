// Multi-job coordinator bench (DESIGN.md §16).
//
// Part 1 answers the scheduling question: does hosting N federated jobs in
// one JobRunner actually buy aggregate throughput, or does the shared
// registry serialize them? It runs the same 8-site in-process federation as
// 1 solo job and as 4 concurrent jobs and reports aggregate rounds/s for
// both plus the scaling factor.
//
// Part 2 times the admin console: mean latency of `status` and `metrics`
// calls through the sealed line protocol against a coordinator that just
// hosted 4 jobs — the number an operator's dashboard poll loop cares about.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "flare/client.h"
#include "flare/jobs.h"
#include "flare/provision.h"

namespace {

using namespace cppflare;

constexpr std::int64_t kSites = 8;
constexpr std::int64_t kRounds = 40;
constexpr int kReps = 3;  // best-of, to shed scheduler noise
constexpr std::int64_t kModelFloats = 4096;
constexpr int kAdminCalls = 1000;

nn::StateDict bench_model() {
  nn::StateDict d;
  d.insert("w", {{kModelFloats}, std::vector<float>(kModelFloats, 0.0f)});
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

std::map<std::string, flare::Credential> make_pool() {
  const flare::Provisioner provisioner("bench-jobs-pool", 33);
  std::map<std::string, flare::Credential> pool =
      provisioner.provision_sites(kSites);
  pool.insert({"admin", provisioner.provision("admin")});
  return pool;
}

flare::JobSpec make_spec(const std::string& job_id) {
  flare::JobSpec spec;
  spec.server.job_id = job_id;
  spec.server.num_rounds = kRounds;
  spec.server.expected_clients = kSites;
  spec.server.min_clients = kSites;
  spec.initial_model = bench_model();
  spec.aggregator = std::make_unique<flare::FedAvgAggregator>(true);
  return spec;
}

void drive_job(flare::JobRunner& runner,
               const std::map<std::string, flare::Credential>& pool,
               const std::string& job_id, std::int64_t job_index) {
  std::vector<std::thread> threads;
  for (std::int64_t i = 0; i < kSites; ++i) {
    const std::string name = "site-" + std::to_string(i + 1);
    threads.emplace_back([&runner, &pool, job_id, job_index, i, name] {
      flare::ClientConfig config;
      config.job_id = job_id;
      config.max_idle_ms = 60000;
      flare::FederatedClient client(
          config, pool.at(name),
          std::make_unique<flare::InProcConnection>(
              runner.async_router()),
          std::make_shared<NudgeLearner>(
              name, static_cast<float>(i + 10 * job_index)));
      client.run();
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Runs `num_jobs` concurrent jobs to completion; returns aggregate
/// rounds/s (jobs x rounds over total wall time).
double run_jobs(const std::map<std::string, flare::Credential>& pool,
                int num_jobs) {
  flare::JobRunner runner(pool);
  const auto started = std::chrono::steady_clock::now();
  for (int j = 0; j < num_jobs; ++j) {
    runner.submit(make_spec("job-" + std::to_string(j)));
  }
  std::vector<std::thread> drivers;
  for (int j = 0; j < num_jobs; ++j) {
    drivers.emplace_back([&runner, &pool, j] {
      drive_job(runner, pool, "job-" + std::to_string(j), j);
    });
  }
  for (std::thread& t : drivers) t.join();
  if (!runner.wait_all(120000)) {
    std::fprintf(stderr, "jobs did not complete\n");
    std::exit(1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  return static_cast<double>(num_jobs) * static_cast<double>(kRounds) /
         seconds;
}

/// Mean latency of one admin command through the full sealed transport.
/// One AdminClient serves all commands: the coordinator tracks the admin
/// identity's sequence window, so a fresh client would read as a replay.
double admin_mean_us(flare::AdminClient& admin, const std::string& command) {
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < kAdminCalls; ++i) {
    const std::string reply = admin.call(command);
    if (reply.rfind("ok", 0) != 0) {
      std::fprintf(stderr, "admin call failed: %s\n", reply.c_str());
      std::exit(1);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         static_cast<double>(kAdminCalls);
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

  // This bench measures concurrent hosting, not admission queueing: on a
  // small machine the default budget would serialize the 4 jobs (and their
  // clients would exhaust retries waiting), so grant at least 4 slots.
  core::set_compute_threads(std::max<std::size_t>(core::compute_threads(), 4));

  const auto pool = make_pool();

  std::printf("Multi-job coordinator: %lld sites, %lld rounds/job"
              " (%lld-float model)\n",
              static_cast<long long>(kSites), static_cast<long long>(kRounds),
              static_cast<long long>(kModelFloats));

  // Interleave the 1-job and 4-job measurements so machine noise hits both.
  double best_single = 0.0;
  double best_concurrent = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    best_single = std::max(best_single, run_jobs(pool, 1));
    best_concurrent = std::max(best_concurrent, run_jobs(pool, 4));
  }
  std::printf("  1 job            : %7.1f rounds/s aggregate\n", best_single);
  std::printf("  4 jobs concurrent: %7.1f rounds/s aggregate  (%.2fx)\n",
              best_concurrent, best_concurrent / best_single);

  // Admin latency against a coordinator that hosted 4 jobs to completion.
  flare::JobRunner runner(pool);
  for (int j = 0; j < 4; ++j) {
    runner.submit(make_spec("job-" + std::to_string(j)));
  }
  std::vector<std::thread> drivers;
  for (int j = 0; j < 4; ++j) {
    drivers.emplace_back([&runner, &pool, j] {
      drive_job(runner, pool, "job-" + std::to_string(j), j);
    });
  }
  for (std::thread& t : drivers) t.join();
  flare::AdminClient admin(
      std::make_unique<flare::InProcConnection>(runner.async_router()),
      pool.at("admin"));
  const double status_us = admin_mean_us(admin, "status job-0");
  const double metrics_us = admin_mean_us(admin, "metrics job-0");
  const double list_us = admin_mean_us(admin, "list");
  std::printf("  admin status     : %7.1f us/call (mean of %d)\n", status_us,
              kAdminCalls);
  std::printf("  admin metrics    : %7.1f us/call\n", metrics_us);
  std::printf("  admin list       : %7.1f us/call\n", list_us);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sites\": %lld,\n"
                 "  \"rounds_per_job\": %lld,\n"
                 "  \"model_floats\": %lld,\n"
                 "  \"transport\": \"in-proc\",\n"
                 "  \"single_job_rounds_per_sec\": %.3f,\n"
                 "  \"four_jobs_aggregate_rounds_per_sec\": %.3f,\n"
                 "  \"four_job_scaling_factor\": %.3f,\n"
                 "  \"admin\": {\"calls\": %d, \"status_mean_us\": %.3f, "
                 "\"metrics_mean_us\": %.3f, \"list_mean_us\": %.3f}\n"
                 "}\n",
                 static_cast<long long>(kSites),
                 static_cast<long long>(kRounds),
                 static_cast<long long>(kModelFloats), best_single,
                 best_concurrent, best_concurrent / best_single, kAdminCalls,
                 status_us, metrics_us, list_us);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
