#include "train/experiment.h"

#include <chrono>

#include "core/config.h"
#include "core/logging.h"
#include "flare/model_selector.h"
#include "flare/simulator.h"
#include "models/lstm_classifier.h"
#include "train/trainer.h"

#define CPPFLARE_LOG_COMPONENT "Experiment"

namespace cppflare::train {

namespace {


double elapsed_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

models::ModelConfig model_config_for(const std::string& model_name,
                                     const data::ClinicalTokenizer& tokenizer) {
  return models::ModelConfig::by_name(model_name, tokenizer.vocab().size(),
                                      tokenizer.max_seq_len());
}

bool is_transformer(const models::ModelConfig& config) {
  return config.kind == models::ModelKind::kBert ||
         config.kind == models::ModelKind::kBertMini;
}

std::int64_t batch_for(const models::ModelConfig& config,
                       const ExperimentScale& scale) {
  return is_transformer(config) ? scale.transformer_batch_size : scale.batch_size;
}

}  // namespace

ExperimentScale ExperimentScale::from_env() {
  ExperimentScale s;
  core::Config c;
  c.set_int("num_patients", s.num_patients);
  c.set_double("valid_fraction", s.valid_fraction);
  c.set_int("pretrain_sequences", s.pretrain_sequences);
  c.set_int("pretrain_valid", s.pretrain_valid);
  c.set_int("max_seq_len", s.max_seq_len);
  c.set_int("num_drugs", s.num_drugs);
  c.set_int("num_diagnoses", s.num_diagnoses);
  c.set_int("num_procedures", s.num_procedures);
  c.set_int("num_clients", s.num_clients);
  c.set_int("fl_rounds", s.fl_rounds);
  c.set_int("local_epochs", s.local_epochs);
  c.set_double("label_skew_alpha", s.label_skew_alpha);
  c.set_int("batch_size", s.batch_size);
  c.set_int("transformer_batch_size", s.transformer_batch_size);
  c.set_double("lr", s.lr);
  c.set_double("weight_decay", s.weight_decay);
  c.set_int("epochs_centralized", s.epochs_centralized);
  c.set_int("epochs_standalone", s.epochs_standalone);
  c.set_int("mlm_epochs", s.mlm_epochs);
  c.set_int("seed", static_cast<std::int64_t>(s.seed));
  c.set_int("compute_threads", s.compute_threads);
  c.apply_env_overrides("REPRO_");
  s.num_patients = c.require_int("num_patients");
  s.valid_fraction = c.require_double("valid_fraction");
  s.pretrain_sequences = c.require_int("pretrain_sequences");
  s.pretrain_valid = c.require_int("pretrain_valid");
  s.max_seq_len = c.require_int("max_seq_len");
  s.num_drugs = c.require_int("num_drugs");
  s.num_diagnoses = c.require_int("num_diagnoses");
  s.num_procedures = c.require_int("num_procedures");
  s.num_clients = c.require_int("num_clients");
  s.fl_rounds = c.require_int("fl_rounds");
  s.local_epochs = c.require_int("local_epochs");
  s.label_skew_alpha = c.require_double("label_skew_alpha");
  s.batch_size = c.require_int("batch_size");
  s.transformer_batch_size = c.require_int("transformer_batch_size");
  s.lr = c.require_double("lr");
  s.weight_decay = c.require_double("weight_decay");
  s.epochs_centralized = c.require_int("epochs_centralized");
  s.epochs_standalone = c.require_int("epochs_standalone");
  s.mlm_epochs = c.require_int("mlm_epochs");
  s.seed = static_cast<std::uint64_t>(c.require_int("seed"));
  s.compute_threads = c.require_int("compute_threads");
  return s;
}

data::ClinicalGenConfig ExperimentScale::generator_config() const {
  data::ClinicalGenConfig g;
  g.num_drugs = num_drugs;
  g.num_diagnoses = num_diagnoses;
  g.num_procedures = num_procedures;
  g.min_events = 8;
  // Leave room for [CLS] + genotype prefix within max_seq_len.
  g.max_events = std::max<std::int64_t>(max_seq_len - 4, 8);
  g.seed = seed;
  return g;
}

ClassificationData prepare_classification_data(const ExperimentScale& scale) {
  const data::ClinicalCohortGenerator generator(scale.generator_config());
  const auto records = generator.generate_labeled(scale.num_patients, scale.seed + 1);
  auto tokenizer = std::make_shared<data::ClinicalTokenizer>(
      generator.build_vocabulary(), scale.max_seq_len);

  data::Dataset all(tokenizer->encode_all(records));
  core::Rng split_rng(scale.seed + 2);
  const auto valid_size =
      static_cast<std::int64_t>(scale.valid_fraction * static_cast<double>(all.size()));
  auto [valid, train] = all.split(valid_size, split_rng);

  data::PartitionOptions popts;
  popts.size_ratios = data::paper_imbalanced_ratios();
  popts.num_clients = scale.num_clients;
  if (static_cast<std::int64_t>(popts.size_ratios.size()) != scale.num_clients) {
    popts.size_ratios.clear();  // fall back to balanced for != 8 clients
  }
  popts.label_skew_alpha = scale.label_skew_alpha;
  popts.seed = scale.seed + 3;

  ClassificationData data;
  data.tokenizer = std::move(tokenizer);
  data.train = std::move(train);
  data.valid = std::move(valid);
  data.shards = data::partition(data.train, popts);
  return data;
}

SchemeResult run_centralized(const std::string& model_name,
                             const ClassificationData& data,
                             const ExperimentScale& scale) {
  const auto start = std::chrono::steady_clock::now();
  core::Rng init_rng(scale.seed + 10);
  const models::ModelConfig mconfig = model_config_for(model_name, *data.tokenizer);
  auto model = models::make_classifier(mconfig, init_rng);

  TrainOptions topts;
  topts.epochs = scale.epochs_centralized;
  topts.batch_size = batch_for(mconfig, scale);
  topts.lr = scale.lr;
  topts.weight_decay = scale.weight_decay;
  topts.seed = scale.seed + 11;
  topts.log_name = "Centralized/" + model_name;
  ClassifierTrainer trainer(model, topts);
  const auto history = trainer.fit(data.train, data.valid);

  // The paper's pipeline "obtains optimal global models and performance
  // metrics" (Sec. III-A); report the best epoch, mirroring the FL path's
  // best-round selection.
  const EpochStats* best = &history.front();
  for (const EpochStats& e : history) {
    if (e.valid_acc > best->valid_acc) best = &e;
  }
  SchemeResult result;
  result.scheme = "centralized";
  result.model = model_name;
  result.accuracy = best->valid_acc;
  result.loss = best->valid_loss;
  result.trained_model = model->state_dict();
  result.seconds = elapsed_since(start);
  return result;
}

SchemeResult run_standalone(const std::string& model_name,
                            const ClassificationData& data,
                            const ExperimentScale& scale) {
  const auto start = std::chrono::steady_clock::now();
  double acc_sum = 0.0, loss_sum = 0.0;
  const models::ModelConfig standalone_config =
      model_config_for(model_name, *data.tokenizer);
  for (std::size_t site = 0; site < data.shards.size(); ++site) {
    core::Rng init_rng(scale.seed + 20 + site);
    auto model = models::make_classifier(standalone_config, init_rng);
    TrainOptions topts;
    topts.epochs = scale.epochs_standalone;
    topts.batch_size = batch_for(standalone_config, scale);
    topts.lr = scale.lr;
    topts.weight_decay = scale.weight_decay;
    topts.seed = scale.seed + 30 + site;
    topts.log_name = "Standalone/" + model_name;
    ClassifierTrainer trainer(model, topts);
    for (std::int64_t e = 0; e < topts.epochs; ++e) {
      trainer.train_epoch(data.shards[site]);
    }
    const EvalResult eval = evaluate(*model, data.valid, scale.batch_size);
    acc_sum += eval.accuracy;
    loss_sum += eval.loss;
    LOG(info).msg("standalone " + model_name + " site-" + std::to_string(site + 1) +
                  " valid_acc=" + std::to_string(eval.accuracy));
  }
  SchemeResult result;
  result.scheme = "standalone";
  result.model = model_name;
  result.accuracy = acc_sum / static_cast<double>(data.shards.size());
  result.loss = loss_sum / static_cast<double>(data.shards.size());
  result.seconds = elapsed_since(start);
  return result;
}

SchemeResult run_federated(const std::string& model_name,
                           const ClassificationData& data,
                           const ExperimentScale& scale,
                           const FederatedOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const models::ModelConfig mconfig = model_config_for(model_name, *data.tokenizer);

  core::Rng init_rng(scale.seed + 40);
  auto initial = models::make_classifier(mconfig, init_rng);

  flare::SimulatorConfig sim;
  sim.num_clients = static_cast<std::int64_t>(data.shards.size());
  sim.num_rounds = scale.fl_rounds;
  sim.seed = scale.seed + 41;
  sim.use_tcp = options.use_tcp;
  sim.compute_threads = scale.compute_threads;

  LearnerOptions lopts;
  lopts.local_epochs = scale.local_epochs;
  lopts.batch_size = batch_for(mconfig, scale);
  lopts.lr = scale.lr;
  lopts.weight_decay = scale.weight_decay;
  lopts.seed = scale.seed + 42;
  lopts.send_diff = options.send_diff;
  lopts.fedprox_mu = options.fedprox_mu;
  lopts.verbose = false;

  // Mask cancellation requires an unweighted sum over contributions; the
  // simulator owns the whole masked path (dealer, filters, unmask
  // provider) behind SimSecureAggConfig.
  const bool weighted = options.secure_masking ? false : options.weighted_aggregation;
  sim.secure_agg.enabled = options.secure_masking;
  sim.secure_agg.dealer_seed = scale.seed + 61;
  flare::SimulatorRunner runner(
      sim, initial->state_dict(), std::make_unique<flare::FedAvgAggregator>(weighted),
      [&](std::int64_t site, const std::string& name) {
        core::Rng site_rng(scale.seed + 50 + site);
        auto model = models::make_classifier(mconfig, site_rng);
        return std::make_shared<ClinicalLearner>(
            name, std::move(model), data.shards[static_cast<std::size_t>(site)],
            data.valid, lopts);
      });

  if (options.dp_sigma > 0.0) {
    runner.set_client_customizer([&](flare::SiteSession& session) {
      session.outbound_filters().add(std::make_shared<flare::GaussianPrivacyFilter>(
          options.dp_sigma, scale.seed + 60));
    });
  }

  flare::BestModelSelector selector;
  if (options.select_best) selector.attach(runner.server());

  const flare::SimulationResult sim_result = runner.run();

  // Evaluate the chosen global model.
  core::Rng eval_rng(scale.seed + 70);
  auto final_model = models::make_classifier(mconfig, eval_rng);
  final_model->load_state_dict(options.select_best && selector.has_best()
                                   ? selector.best_model()
                                   : sim_result.final_model);
  const EvalResult eval = evaluate(*final_model, data.valid, scale.batch_size);

  SchemeResult result;
  result.scheme = "fl";
  result.model = model_name;
  result.accuracy = eval.accuracy;
  result.loss = eval.loss;
  result.trained_model = final_model->state_dict();
  result.seconds = elapsed_since(start);
  return result;
}

const char* mlm_scheme_name(MlmScheme scheme) {
  switch (scheme) {
    case MlmScheme::kCentralized: return "centralized";
    case MlmScheme::kSmallDataset: return "small-dataset";
    case MlmScheme::kFlImbalanced: return "fl-imbalanced";
    case MlmScheme::kFlBalanced: return "fl-balanced";
  }
  return "?";
}

std::vector<double> run_mlm_scheme(MlmScheme scheme, const ExperimentScale& scale) {
  const data::ClinicalCohortGenerator generator(scale.generator_config());
  const data::ClinicalTokenizer tokenizer(generator.build_vocabulary(),
                                          scale.max_seq_len);
  const data::Dataset corpus(tokenizer.encode_all(
      generator.generate_unlabeled(scale.pretrain_sequences, scale.seed + 80)));
  const data::Dataset valid(tokenizer.encode_all(
      generator.generate_unlabeled(scale.pretrain_valid, scale.seed + 81)));

  const models::ModelConfig mconfig = models::ModelConfig::bert(
      tokenizer.vocab().size(), tokenizer.max_seq_len());
  const data::MlmMasker masker(tokenizer.vocab().size());

  std::vector<double> series;

  const std::int64_t mlm_batch = scale.transformer_batch_size;
  if (scheme == MlmScheme::kCentralized || scheme == MlmScheme::kSmallDataset) {
    data::Dataset train_corpus = corpus;
    if (scheme == MlmScheme::kSmallDataset) {
      // The paper's lower bound: one small site's worth of data (the
      // smallest imbalanced shard, 2%).
      data::PartitionOptions popts;
      popts.size_ratios = data::paper_imbalanced_ratios();
      popts.num_clients = 8;
      popts.seed = scale.seed + 82;
      train_corpus = data::partition(corpus, popts).back();
    }
    core::Rng init_rng(scale.seed + 83);
    auto model = std::make_shared<models::BertForPretraining>(mconfig, init_rng);
    TrainOptions topts;
    topts.epochs = scale.mlm_epochs;
    topts.batch_size = mlm_batch;
    topts.lr = scale.lr;
    topts.seed = scale.seed + 84;
    MlmTrainer trainer(model, masker, topts);
    for (std::int64_t e = 0; e < scale.mlm_epochs; ++e) {
      trainer.train_epoch(train_corpus);
      series.push_back(trainer.evaluate(valid));
    }
    return series;
  }

  // FL schemes: partition the corpus, one MLM learner per site.
  data::PartitionOptions popts;
  popts.num_clients = scale.num_clients;
  if (scheme == MlmScheme::kFlImbalanced &&
      scale.num_clients ==
          static_cast<std::int64_t>(data::paper_imbalanced_ratios().size())) {
    popts.size_ratios = data::paper_imbalanced_ratios();
  }
  popts.seed = scale.seed + 85;
  const std::vector<data::Dataset> shards = data::partition(corpus, popts);

  core::Rng init_rng(scale.seed + 86);
  const models::BertForPretraining initial(mconfig, init_rng);

  flare::SimulatorConfig sim;
  sim.num_clients = scale.num_clients;
  sim.num_rounds = scale.mlm_epochs;
  sim.seed = scale.seed + 87;
  sim.compute_threads = scale.compute_threads;

  LearnerOptions lopts;
  lopts.local_epochs = 1;
  lopts.batch_size = mlm_batch;
  lopts.lr = scale.lr;
  lopts.seed = scale.seed + 88;
  lopts.verbose = false;

  flare::SimulatorRunner runner(
      sim, initial.state_dict(), std::make_unique<flare::FedAvgAggregator>(true),
      [&](std::int64_t site, const std::string& name) {
        core::Rng site_rng(scale.seed + 90 + site);
        auto model = std::make_shared<models::BertForPretraining>(mconfig, site_rng);
        return std::make_shared<MlmFederatedLearner>(
            name, std::move(model), masker,
            shards[static_cast<std::size_t>(site)], valid, lopts);
      });

  // Capture a copy of the global model after every aggregation; evaluating
  // inside the observer would stall the federation, so score them after.
  std::vector<nn::StateDict> round_models;
  runner.server().add_round_observer(
      [&round_models](std::int64_t, const nn::StateDict& model,
                      const flare::RoundMetrics&) { round_models.push_back(model); });
  const flare::SimulationResult run = runner.run();
  if (run.aborted) {
    throw Error("federated MLM run aborted: " + run.abort_reason);
  }

  core::Rng probe_rng(scale.seed + 95);
  auto probe = std::make_shared<models::BertForPretraining>(mconfig, probe_rng);
  TrainOptions probe_opts;
  probe_opts.batch_size = mlm_batch;
  probe_opts.seed = scale.seed + 96;
  MlmTrainer probe_trainer(probe, masker, probe_opts);
  for (const nn::StateDict& model : round_models) {
    probe->load_state_dict(model);
    series.push_back(probe_trainer.evaluate(valid));
  }
  return series;
}

}  // namespace cppflare::train
