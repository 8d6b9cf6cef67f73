// Federation over real TCP sockets — the paper's "two Linux machines" row
// of Table I, in one binary.
//
// Usage:
//   ./examples/tcp_federation                 # server + 8 clients in-process
//                                             # over loopback TCP
//   ./examples/tcp_federation role=server port=9123 clients=2 rounds=3
//   ./examples/tcp_federation role=client port=9123 site=site-1
//   ./examples/tcp_federation role=client port=9123 site=site-2
//
// In split mode each process is a real federation participant: the server
// process hosts provisioning-derived credentials and the ScatterAndGather
// controller; each client process connects, authenticates with its token,
// and trains its local shard. Credentials derive deterministically from the
// shared project seed, standing in for distributing startup kits.
#include <cstdio>

#include "core/config.h"
#include "core/logging.h"
#include "flare/simulator.h"
#include "flare/tcp.h"
#include "models/lstm_classifier.h"
#include "train/clinical_learner.h"
#include "train/experiment.h"
#include "train/metrics.h"

namespace {

using namespace cppflare;

constexpr const char* kProject = "tcp_federation_demo";
constexpr std::uint64_t kProjectSeed = 424242;

train::ClassificationData shared_data(std::int64_t clients) {
  train::ExperimentScale scale = train::ExperimentScale::from_env();
  scale.num_patients = 400;
  scale.num_clients = clients;
  return train::prepare_classification_data(scale);
}

std::shared_ptr<train::ClinicalLearner> make_learner(
    const train::ClassificationData& data, std::int64_t site_index,
    const std::string& site_name) {
  models::ModelConfig mconfig = models::ModelConfig::lstm(
      data.tokenizer->vocab().size(), data.tokenizer->max_seq_len());
  mconfig.hidden = 48;  // demo-sized
  core::Rng rng(kProjectSeed + 7 + site_index);
  auto model = models::make_classifier(mconfig, rng);
  train::LearnerOptions lopts;
  lopts.local_epochs = 1;
  lopts.batch_size = 16;
  lopts.lr = 1e-2;
  return std::make_shared<train::ClinicalLearner>(
      site_name, std::move(model),
      data.shards[static_cast<std::size_t>(site_index)], data.valid, lopts);
}

int run_server(std::uint16_t port, std::int64_t clients, std::int64_t rounds) {
  const auto registry = flare::Provisioner(kProject, kProjectSeed)
                            .provision_sites(clients);
  const train::ClassificationData data = shared_data(clients);

  models::ModelConfig mconfig = models::ModelConfig::lstm(
      data.tokenizer->vocab().size(), data.tokenizer->max_seq_len());
  mconfig.hidden = 48;
  core::Rng init_rng(kProjectSeed);
  auto initial = models::make_classifier(mconfig, init_rng);

  flare::ServerConfig config;
  config.job_id = kProject;
  config.num_rounds = rounds;
  config.min_clients = clients;
  config.expected_clients = clients;
  flare::FederatedServer server(config, registry, initial->state_dict(),
                                std::make_unique<flare::FedAvgAggregator>(true));
  flare::TcpServer transport(port, server.async_dispatcher());
  std::printf("server listening on 127.0.0.1:%u for %lld clients, %lld rounds\n",
              transport.port(), static_cast<long long>(clients),
              static_cast<long long>(rounds));
  if (!server.wait_until_finished(10 * 60 * 1000)) {
    std::fprintf(stderr, "run did not finish in time\n");
    return 1;
  }
  core::Rng eval_rng(kProjectSeed + 99);
  auto final_model = models::make_classifier(mconfig, eval_rng);
  final_model->load_state_dict(server.global_model());
  std::printf("final global accuracy: %.1f%%\n",
              100.0 * train::evaluate(*final_model, data.valid, 16).accuracy);
  transport.stop();
  return 0;
}

int run_client(std::uint16_t port, const std::string& site, std::int64_t clients) {
  const flare::Credential cred =
      flare::Provisioner(kProject, kProjectSeed).provision(site);
  const train::ClassificationData data = shared_data(clients);
  const std::int64_t index = std::stoll(site.substr(site.find('-') + 1)) - 1;

  flare::ClientConfig config;
  config.job_id = kProject;
  flare::FederatedClient client(
      config, cred, std::make_unique<flare::TcpConnection>("127.0.0.1", port),
      make_learner(data, index, site));
  client.run();
  std::printf("%s participated in %lld rounds\n", site.c_str(),
              static_cast<long long>(client.rounds_participated()));
  return 0;
}

int run_all_in_one() {
  const std::int64_t clients = 4, rounds = 3;
  const train::ClassificationData data = shared_data(clients);
  models::ModelConfig mconfig = models::ModelConfig::lstm(
      data.tokenizer->vocab().size(), data.tokenizer->max_seq_len());
  mconfig.hidden = 48;
  core::Rng init_rng(kProjectSeed);
  auto initial = models::make_classifier(mconfig, init_rng);

  flare::SimulatorConfig sim;
  sim.job_id = kProject;
  sim.num_clients = clients;
  sim.num_rounds = rounds;
  sim.use_tcp = true;  // loopback sockets, not in-proc calls
  flare::SimulatorRunner runner(
      sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
      [&](std::int64_t i, const std::string& name) {
        return make_learner(data, i, name);
      });
  const flare::SimulationResult result = runner.run();
  core::Rng eval_rng(kProjectSeed + 99);
  auto final_model = models::make_classifier(mconfig, eval_rng);
  final_model->load_state_dict(result.final_model);
  std::printf("\nTCP federation finished in %.1f s; global accuracy %.1f%%\n",
              result.wall_seconds,
              100.0 * train::evaluate(*final_model, data.valid, 16).accuracy);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::Config config = core::Config::from_args(
      std::vector<std::string>(argv + 1, argv + argc));
  const std::string role = config.get("role", "all");
  const auto port = static_cast<std::uint16_t>(config.get_int("port", 9123));
  const std::int64_t clients = config.get_int("clients", 2);
  const std::int64_t rounds = config.get_int("rounds", 3);

  if (role == "server") return run_server(port, clients, rounds);
  if (role == "client") return run_client(port, config.require("site"), clients);
  return run_all_in_one();
}
