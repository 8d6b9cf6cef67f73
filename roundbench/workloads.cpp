// The four workloads (README.md gives the reason for each).
//
// Every input is generated from --seed: payload values, per-site sample
// counts, the clinical cohort, model initialization, provisioning, DP and
// secure-aggregation dealer seeds. Every scale knob is set here, so no
// REPRO_* or CPPFLARE_* variable can change what a workload runs.
#include <cmath>
#include <cstdio>
#include <optional>

#include "data/clinical_gen.h"
#include "flare/hierarchy.h"
#include "flare/journal.h"
#include "flare/observability.h"
#include "flare/secure_agg.h"
#include "models/lstm_classifier.h"
#include "roundbench.h"
#include "train/experiment.h"
#include "train/metrics.h"

namespace roundbench {

namespace {

namespace data = cppflare::data;
namespace models = cppflare::models;
namespace train = cppflare::train;

/// Independent sub-seed `stream` of the run seed (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Cheap deterministic stream for multi-million-value synthetic payloads.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return derive(state_, 0);
  }
  /// Uniform in [-scale, scale).
  float uniform(float scale) {
    return scale * (static_cast<float>(next() >> 40) / 8388608.0f - 1.0f);
  }

 private:
  std::uint64_t state_;
};

/// The paper's data scale, fixed here rather than read from the
/// environment. `patients` sizes the cohort.
train::ExperimentScale clinical_scale(std::uint64_t seed, std::int64_t patients,
                                      std::int64_t sites) {
  train::ExperimentScale s;
  s.num_patients = patients;
  s.valid_fraction = 0.4;
  s.max_seq_len = 32;
  s.num_drugs = 120;
  s.num_diagnoses = 160;
  s.num_procedures = 80;
  s.num_clients = sites;
  s.label_skew_alpha = 0.3;
  s.seed = seed;
  return s;
}

/// The paper's BERT (Table II) state dict — real names and shapes, 2.47M
/// floats at this vocabulary — or, in smoke mode, one 64K-float tensor.
nn::StateDict payload_model(std::uint64_t seed, bool smoke) {
  if (smoke) {
    nn::StateDict dict;
    SplitMix fill(seed);
    nn::ParamBlob blob;
    blob.shape = {65536};
    blob.values.resize(65536);
    for (float& v : blob.values) v = fill.uniform(0.05f);
    dict.insert("w", std::move(blob));
    return dict;
  }
  const train::ExperimentScale scale = clinical_scale(seed, 1, 1);
  const data::ClinicalCohortGenerator generator(scale.generator_config());
  core::Rng rng(seed);
  return models::make_classifier(
             models::ModelConfig::bert(generator.build_vocabulary().size(),
                                       scale.max_seq_len),
             rng)
      ->state_dict();
}

/// A site whose local training is a no-op: it returns the same fixed
/// update every round, so the round is pure coordinator work.
class FixedLearner final : public flare::Learner {
 public:
  FixedLearner(std::string site, std::shared_ptr<const nn::StateDict> payload,
               flare::DxoKind kind, std::int64_t samples)
      : site_(std::move(site)), payload_(std::move(payload)), kind_(kind),
        samples_(samples) {}

  flare::Dxo train(const flare::Dxo&, const flare::FLContext&) override {
    flare::Dxo update(kind_, *payload_);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, samples_);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  std::shared_ptr<const nn::StateDict> payload_;
  flare::DxoKind kind_;
  std::int64_t samples_;
};

/// Moves every weight halfway toward a per-site target: a deterministic,
/// nearly free local step for the control-plane workload.
class NudgeLearner final : public flare::Learner {
 public:
  NudgeLearner(std::string site, float target, std::int64_t samples)
      : site_(std::move(site)), target_(target), samples_(samples) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext&) override {
    flare::Dxo update(flare::DxoKind::kWeights, global.data());
    for (auto& [name, blob] : update.data().entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    update.set_meta_int(flare::Dxo::kMetaNumSamples, samples_);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t samples_;
};

flare::SimulatorConfig base_config(const Shape& shape, std::uint64_t seed) {
  flare::SimulatorConfig config;
  config.job_id = shape.name;
  config.num_clients = shape.sites;
  config.site_workers = shape.site_workers;
  config.use_tcp = shape.tcp;
  config.seed = derive(seed, 1);
  // One compute thread: no kernel helper threads, so the load stays within
  // the site threads plus the admin thread.
  config.compute_threads = 1;
  return config;
}

class ProtocolBert final : public Workload {
 public:
  ProtocolBert(std::uint64_t seed, bool smoke, std::int64_t workers)
      : seed_(seed), smoke_(smoke) {
    shape_ = {"protocol-bert", 8, workers, false, smoke ? 1 : 2};
  }
  const Shape& shape() const override { return shape_; }

  Inputs prepare(const std::string&) override {
    initial_ = payload_model(derive(seed_, 2), smoke_);
    payloads_.clear();
    samples_.clear();
    for (std::int64_t i = 0; i < shape_.sites; ++i) {
      auto dict = std::make_shared<nn::StateDict>(initial_);
      SplitMix fill(derive(seed_, 100 + static_cast<std::uint64_t>(i)));
      for (auto& [name, blob] : dict->entries()) {
        for (float& v : blob.values) v = fill.uniform(0.05f);
      }
      payloads_.push_back(std::move(dict));
      samples_.push_back(50 + static_cast<std::int64_t>(fill.next() % 101));
    }
    Inputs in;
    in.config = base_config(shape_, seed_);
    in.initial_model = initial_;
    in.aggregator = std::make_unique<flare::FedAvgAggregator>(true);
    in.learners = [this](std::int64_t i, const std::string& name) {
      return std::make_shared<FixedLearner>(
          name, payloads_[static_cast<std::size_t>(i)], flare::DxoKind::kWeights,
          samples_[static_cast<std::size_t>(i)]);
    };
    return in;
  }

  void check(const flare::SimulationResult& result, std::int64_t, const nn::StateDict&,
             std::vector<std::string>& failures, std::vector<std::string>&) override {
    flare::FedAvgAggregator bare(true);
    bare.reset(initial_, 0);
    for (std::int64_t i = 0; i < shape_.sites; ++i) {
      flare::Dxo update(flare::DxoKind::kWeights,
                        *payloads_[static_cast<std::size_t>(i)]);
      update.set_meta_int(flare::Dxo::kMetaNumSamples,
                          samples_[static_cast<std::size_t>(i)]);
      bare.accept(site_name(i), update);
    }
    if (result.final_model != bare.aggregate()) {
      failures.push_back(
          "final model differs from a bare weighted FedAvg over the site dicts");
    }
  }

 private:
  Shape shape_;
  std::uint64_t seed_;
  bool smoke_;
  nn::StateDict initial_;
  std::vector<std::shared_ptr<const nn::StateDict>> payloads_;
  std::vector<std::int64_t> samples_;
};

class PrivacyBert final : public Workload {
 public:
  static constexpr double kClip = 1.0;
  static constexpr double kNoise = 1.0;
  static constexpr double kDelta = 1e-5;
  static constexpr std::int64_t kFracBits = 16;

  PrivacyBert(std::uint64_t seed, bool smoke, std::int64_t workers)
      : seed_(seed), smoke_(smoke) {
    shape_ = {"privacy-bert", 8, workers, false, smoke ? 1 : 2};
  }
  const Shape& shape() const override { return shape_; }

  Inputs prepare(const std::string&) override {
    initial_ = payload_model(derive(seed_, 2), smoke_);
    diffs_.clear();
    // Updates on the 2^-16 grid (k * 2^-16, |k| <= 20) so masking's
    // fixed-point quantization is exact; their L2 norm stays near 0.3 for
    // 2.47M values (and far lower for the smoke payload), below the clip.
    const float step = std::ldexp(1.0f, -static_cast<int>(kFracBits));
    for (std::int64_t i = 0; i < shape_.sites; ++i) {
      auto dict = std::make_shared<nn::StateDict>(initial_);
      SplitMix fill(derive(seed_, 200 + static_cast<std::uint64_t>(i)));
      for (auto& [name, blob] : dict->entries()) {
        for (float& v : blob.values) {
          v = step * static_cast<float>(static_cast<std::int64_t>(fill.next() % 41) - 20);
        }
      }
      diffs_.push_back(std::move(dict));
    }
    Inputs in;
    in.config = base_config(shape_, seed_);
    in.config.secure_agg.enabled = true;
    in.config.secure_agg.frac_bits = kFracBits;
    in.config.secure_agg.dealer_seed = derive(seed_, 3);
    in.config.dp.enabled = true;
    in.config.dp.clip_norm = kClip;
    in.config.dp.noise_multiplier = kNoise;
    in.config.dp.delta = kDelta;
    in.config.dp.seed = derive(seed_, 4);
    in.initial_model = initial_;
    in.aggregator = std::make_unique<flare::MaskedFedAvgAggregator>(kFracBits);
    in.learners = [this](std::int64_t i, const std::string& name) {
      return std::make_shared<FixedLearner>(name, diffs_[static_cast<std::size_t>(i)],
                                            flare::DxoKind::kWeightDiff, 100);
    };
    return in;
  }

  void check(const flare::SimulationResult& result, std::int64_t rounds,
             const nn::StateDict&, std::vector<std::string>& failures,
             std::vector<std::string>& detail) override {
    const auto waves = result.metrics.counters.find(
        flare::metric_names::kServerRecoveryRounds);
    if (waves != result.metrics.counters.end() && waves->second != 0) {
      failures.push_back("mask recovery ran " + std::to_string(waves->second) +
                         " time(s); expected none");
    }
    const double epsilon =
        flare::DpAccountant(kNoise, kDelta).epsilon_after(rounds);
    if (result.dp_epsilon_spent != epsilon) {
      failures.push_back("dp_epsilon_spent " + std::to_string(result.dp_epsilon_spent) +
                         " != accountant " + std::to_string(epsilon));
    }
    // final - (initial + rounds * mean update) is the summed DP noise: per
    // element the mean over n sites of N(0, (z*C)^2), added every round.
    const double n = static_cast<double>(shape_.sites);
    double sum = 0.0, sum_sq = 0.0, count = 0.0;
    for (const auto& [name, blob] : initial_.entries()) {
      const std::vector<float>& final_values = result.final_model.at(name).values;
      std::vector<const float*> site_values;
      for (const auto& diff : diffs_) site_values.push_back(diff->at(name).values.data());
      for (std::size_t k = 0; k < blob.values.size(); ++k) {
        double mean_update = 0.0;
        for (const float* values : site_values) mean_update += values[k];
        const double noise = static_cast<double>(final_values[k]) -
                             (static_cast<double>(blob.values[k]) +
                              static_cast<double>(rounds) * mean_update / n);
        sum += noise;
        sum_sq += noise * noise;
        count += 1.0;
      }
    }
    const double std = std::sqrt(sum_sq / count - (sum / count) * (sum / count));
    const double expected = kNoise * kClip * std::sqrt(static_cast<double>(rounds) / n);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "noise std %.5f vs sigma*sqrt(R/n) %.5f (R=%lld), epsilon %.4f",
                  std, expected, static_cast<long long>(rounds), epsilon);
    detail.emplace_back(line);
    if (std::abs(std / expected - 1.0) > 0.03) {
      failures.push_back(std::string("DP noise off by more than 3%: ") + line);
    }
  }

 private:
  Shape shape_;
  std::uint64_t seed_;
  bool smoke_;
  nn::StateDict initial_;
  std::vector<std::shared_ptr<const nn::StateDict>> diffs_;
};

class ClinicalBertTcp final : public Workload {
 public:
  ClinicalBertTcp(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {
    shape_ = {"clinical-bert-tcp", 3, 0, true, smoke ? 1 : 2};
  }
  const Shape& shape() const override { return shape_; }

  Inputs prepare(const std::string& dir) override {
    // 40% held out for the benchmark's own evaluation; the rest is split
    // evenly over the sites: 16 patients, one batch per round, each.
    const train::ExperimentScale scale =
        clinical_scale(derive(seed_, 5), smoke_ ? 40 : 80, shape_.sites);
    data_ = train::prepare_classification_data(scale);
    const std::int64_t vocab = data_.tokenizer->vocab().size();
    model_config_ = smoke_ ? models::ModelConfig::bert_mini(vocab, scale.max_seq_len)
                           : models::ModelConfig::bert(vocab, scale.max_seq_len);
    core::Rng init_rng(derive(seed_, 6));
    initial_ = models::make_classifier(model_config_, init_rng)->state_dict();
    persist_path_ = dir + "/global.cpk";

    Inputs in;
    in.config = base_config(shape_, seed_);
    in.config.persist_path = persist_path_;
    in.config.journal = true;
    in.config.journal_sync = core::WalSyncPolicy::kEveryRound;
    in.initial_model = initial_;
    in.aggregator = std::make_unique<flare::FedAvgAggregator>(true);
    train::LearnerOptions options;
    options.local_epochs = 1;
    options.batch_size = 16;
    options.lr = 1e-2;
    options.seed = derive(seed_, 7);
    options.verbose = false;
    learners_ = [this, options](std::int64_t i, const std::string& name) {
      core::Rng rng(derive(seed_, 300 + static_cast<std::uint64_t>(i)));
      // No per-round validation at the sites: the benchmark scores the
      // final global model itself.
      return std::make_shared<train::ClinicalLearner>(
          name, models::make_classifier(model_config_, rng),
          data_.shards[static_cast<std::size_t>(i)], data::Dataset{}, options);
    };
    in.learners = learners_;
    return in;
  }

  void check(const flare::SimulationResult& result, std::int64_t rounds,
             const nn::StateDict& last_input, std::vector<std::string>& failures,
             std::vector<std::string>& detail) override {
    for (const flare::RoundMetrics& round : result.history) {
      if (round.num_contributions != shape_.sites) {
        failures.push_back("round " + std::to_string(round.round) + " aggregated " +
                           std::to_string(round.num_contributions) +
                           " contributions");
      }
    }
    // Local training is a pure function of (global model, shard, round), so
    // fresh learners and a bare FedAvg recompute the last round exactly.
    flare::FedAvgAggregator bare(true);
    bare.reset(last_input, rounds - 1);
    flare::FLContext ctx;
    ctx.job_id = shape_.name;
    ctx.current_round = rounds - 1;
    ctx.total_rounds = rounds;
    for (std::int64_t i = 0; i < shape_.sites; ++i) {
      ctx.site_name = site_name(i);
      bare.accept(ctx.site_name, learners_(i, ctx.site_name)
                                     ->train(flare::Dxo(flare::DxoKind::kWeights,
                                                        last_input),
                                             ctx));
    }
    if (result.final_model != bare.aggregate()) {
      failures.push_back(
          "final model differs from the last round recomputed by bare learners");
    }
    // Validation quality is reported, not checked: the paper's BERT at Adam
    // 1e-2 on 16 patients per site swings between the classes from round
    // to round, so its loss after a given round is not monotone.
    core::Rng rng(derive(seed_, 8));
    auto model = models::make_classifier(model_config_, rng);
    model->load_state_dict(initial_);
    const train::EvalResult before = train::evaluate(*model, data_.valid, 32);
    model->load_state_dict(result.final_model);
    const train::EvalResult after = train::evaluate(*model, data_.valid, 32);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "final_valid_loss %.5f (initial %.5f), valid accuracy %.3f on %lld",
                  after.loss, before.loss, after.accuracy,
                  static_cast<long long>(data_.valid.size()));
    detail.emplace_back(line);
    const std::optional<flare::Checkpoint> saved =
        flare::ModelPersistor(persist_path_).load();
    if (!saved || saved->model != result.final_model) {
      failures.push_back("checkpoint does not hold the final model");
    }
    const std::vector<flare::JournalEvent> journal =
        flare::RoundJournal::read(persist_path_ + ".journal");
    if (journal.size() != 1 || journal[0].type != flare::JournalEventType::kJobHeader) {
      failures.push_back("journal not compacted to its header (" +
                         std::to_string(journal.size()) + " events)");
    }
  }

 private:
  Shape shape_;
  std::uint64_t seed_;
  bool smoke_;
  train::ClassificationData data_;
  models::ModelConfig model_config_;
  nn::StateDict initial_;
  flare::SimulatorRunner::LearnerFactory learners_;
  std::string persist_path_;
};

class ControlPlane256 final : public Workload {
 public:
  ControlPlane256(std::uint64_t seed, bool smoke, std::int64_t workers)
      : seed_(seed) {
    shape_ = {"control-plane-256", smoke ? 16 : 256, workers, false, smoke ? 1 : 10};
  }
  const Shape& shape() const override { return shape_; }

  Inputs prepare(const std::string&) override {
    SplitMix fill(derive(seed_, 2));
    nn::ParamBlob blob;
    blob.shape = {1024};
    blob.values.resize(1024);
    for (float& v : blob.values) v = fill.uniform(1.0f);
    initial_ = nn::StateDict{};
    initial_.insert("w", std::move(blob));
    targets_.clear();
    samples_.clear();
    for (std::int64_t i = 0; i < shape_.sites; ++i) {
      targets_.push_back(fill.uniform(1.0f));
      samples_.push_back(1 + static_cast<std::int64_t>(fill.next() % 20));
    }
    Inputs in;
    in.config = base_config(shape_, seed_);
    in.initial_model = initial_;
    in.aggregator = std::make_unique<flare::HierarchicalFedAvgAggregator>(true, 16);
    in.learners = [this](std::int64_t i, const std::string& name) {
      return std::make_shared<NudgeLearner>(name, targets_[static_cast<std::size_t>(i)],
                                            samples_[static_cast<std::size_t>(i)]);
    };
    return in;
  }

  void check(const flare::SimulationResult& result, std::int64_t rounds,
             const nn::StateDict&, std::vector<std::string>& failures,
             std::vector<std::string>&) override {
    // The same learners and a flat FedAvg in a bare loop: equal bytes also
    // confirm that the 16-way hierarchy reduces like the flat tree.
    nn::StateDict global = initial_;
    flare::FedAvgAggregator bare(true);
    for (std::int64_t r = 0; r < rounds; ++r) {
      bare.reset(global, r);
      flare::FLContext ctx;
      ctx.current_round = r;
      for (std::int64_t i = 0; i < shape_.sites; ++i) {
        NudgeLearner learner(site_name(i), targets_[static_cast<std::size_t>(i)],
                             samples_[static_cast<std::size_t>(i)]);
        bare.accept(site_name(i), learner.train(flare::Dxo(flare::DxoKind::kWeights,
                                                           global),
                                                ctx));
      }
      global = bare.aggregate();
    }
    if (result.final_model != global) {
      failures.push_back("final model differs from a bare learner/aggregator loop");
    }
  }

 private:
  Shape shape_;
  std::uint64_t seed_;
  nn::StateDict initial_;
  std::vector<float> targets_;
  std::vector<std::int64_t> samples_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "protocol-bert", "privacy-bert", "clinical-bert-tcp", "control-plane-256"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke, std::int64_t site_workers) {
  if (name == "protocol-bert") {
    return std::make_unique<ProtocolBert>(seed, smoke, site_workers);
  }
  if (name == "privacy-bert") {
    return std::make_unique<PrivacyBert>(seed, smoke, site_workers);
  }
  if (name == "clinical-bert-tcp") return std::make_unique<ClinicalBertTcp>(seed, smoke);
  if (name == "control-plane-256") {
    return std::make_unique<ControlPlane256>(seed, smoke, site_workers);
  }
  return nullptr;
}

}  // namespace roundbench
