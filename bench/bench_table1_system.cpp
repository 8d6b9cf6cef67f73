// Table I reproduction — system parameters and federation overhead.
//
// Prints the paper's Table I alongside the values this reproduction uses,
// then measures what the table's hardware rows imply here: provisioning
// cost, the per-round protocol overhead of an 8-client federation with
// no-op learners shipping the paper's BERT state dict (pure framework
// cost), and the in-proc vs TCP transport delta.
#include <sched.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/sha256_kernel.h"
#include "data/clinical_gen.h"
#include "flare/simulator.h"
#include "models/lstm_classifier.h"
#include "train/experiment.h"

namespace {

using namespace cppflare;

/// The paper's BERT (Table II) state dict at the default reproduction
/// vocabulary and sequence length: real names and shapes, 2,472,082 floats.
nn::StateDict bert_state_dict() {
  const train::ExperimentScale defaults;
  const data::ClinicalCohortGenerator generator(defaults.generator_config());
  core::Rng rng(defaults.seed);
  return models::make_classifier(
             models::ModelConfig::bert(generator.build_vocabulary().size(),
                                       defaults.max_seq_len),
             rng)
      ->state_dict();
}

std::string host_description() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  const bool sha_ni = core::sha256_kernel_supported(core::Sha256Kernel::kShaNi);
  return std::to_string(cores) + " CPU cores, sha_ni " + (sha_ni ? "yes" : "no");
}

class NoopLearner : public flare::Learner {
 public:
  NoopLearner(std::string site, nn::StateDict weights)
      : site_(std::move(site)), weights_(std::move(weights)) {}
  flare::Dxo train(const flare::Dxo&, const flare::FLContext&) override {
    flare::Dxo update(flare::DxoKind::kWeights, weights_);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 100);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  nn::StateDict weights_;
};

double run_noop_federation(std::int64_t clients, std::int64_t rounds,
                           const nn::StateDict& model, bool use_tcp) {
  flare::SimulatorConfig config;
  config.num_clients = clients;
  config.num_rounds = rounds;
  config.use_tcp = use_tcp;
  flare::SimulatorRunner runner(
      config, model, std::make_unique<flare::FedAvgAggregator>(true),
      [&](std::int64_t, const std::string& name) {
        return std::make_shared<NoopLearner>(name, model);
      });
  return runner.run().wall_seconds;
}

}  // namespace

int main() {
  using namespace cppflare;
  const train::ExperimentScale scale = train::ExperimentScale::from_env();
  bench::print_header("Table I — parameters and federation overhead", scale);

  std::printf("%-34s | %-28s | %s\n", "Description", "Paper", "This reproduction");
  std::printf("%.34s-+-%.28s-+-%.30s\n",
              "----------------------------------------",
              "----------------------------------------",
              "----------------------------------------");
  std::printf("%-34s | %-28s | %lld\n", "Number of clients", "8",
              static_cast<long long>(scale.num_clients));
  std::printf("%-34s | %-28s | %s\n", "Hardware",
              "2x Xeon + 4x RTX 2080 Ti; AWS p3.8xlarge",
              host_description().c_str());
  std::printf("%-34s | %-28s | %s\n", "Software",
              "PyTorch, CUDA, NVFlare v2.2", "cppflare (this library)");
  std::printf("%-34s | %-28s | %lld\n", "# train data (pretraining)", "453377",
              static_cast<long long>(scale.pretrain_sequences));
  std::printf("%-34s | %-28s | %lld\n", "# valid data (pretraining)", "8683",
              static_cast<long long>(scale.pretrain_valid));
  std::printf("%-34s | %-28s | %lld\n", "# train data (classification)", "6927",
              static_cast<long long>(
                  scale.num_patients -
                  static_cast<std::int64_t>(scale.valid_fraction *
                                            static_cast<double>(scale.num_patients))));
  std::printf("%-34s | %-28s | %lld\n", "# valid data (classification)", "1732",
              static_cast<long long>(scale.valid_fraction *
                                     static_cast<double>(scale.num_patients)));
  std::printf("%-34s | %-28s | Adam, %g\n", "Optimizer / learning rate",
              "Adam, 1e-2", scale.lr);

  bench::quiet_logs();

  // Provisioning cost (token + secret derivation for 8 sites + server).
  const auto prov_start = std::chrono::steady_clock::now();
  const flare::Provisioner provisioner("simulator_server", 7);
  const auto registry = provisioner.provision_sites(scale.num_clients);
  const double prov_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                prov_start)
          .count();
  std::printf("\nprovisioning: %zu participants in %.3f ms\n", registry.size(),
              prov_ms);
  std::printf("  e.g. site-1 token: %s\n", registry.at("site-1").token.c_str());

  // Pure framework overhead: no-op learners shipping the BERT state dict.
  const nn::StateDict bert = bert_state_dict();
  const long long params = static_cast<long long>(bert.total_numel());
  constexpr std::int64_t kRounds = 5;
  const double inproc = run_noop_federation(scale.num_clients, kRounds, bert, false);
  std::printf(
      "\nfederation protocol overhead (no-op learners, %lld-param BERT, %lld "
      "rounds, %lld clients, SHA-256 kernel %s):\n",
      params, static_cast<long long>(kRounds),
      static_cast<long long>(scale.num_clients),
      core::sha256_kernel_name(core::sha256_active_kernel()));
  std::printf("  in-proc transport : %.3f s total, %.1f ms/round\n", inproc,
              1000.0 * inproc / kRounds);
  const double tcp = run_noop_federation(scale.num_clients, kRounds, bert, true);
  std::printf("  TCP transport     : %.3f s total, %.1f ms/round\n", tcp,
              1000.0 * tcp / kRounds);
  std::printf("\n[table1] done\n");
  return 0;
}
