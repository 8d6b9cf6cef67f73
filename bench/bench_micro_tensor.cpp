// Microbenchmarks for the tensor/NN substrate (google-benchmark).
//
// The GEMM and model benches take the compute-thread budget as their last
// range argument, so one run sweeps 1..N threads and `scripts/bench.sh` can
// record the scaling curve in a single JSON file. A budget above the host's
// cores would measure oversubscription, not scaling: such rows are skipped
// and say so in their error message. The JSON context carries the host
// (bench_common.h), including the GEMM tier every row ran at.
#include <benchmark/benchmark.h>
#include <sched.h>
#include <sys/resource.h>

#include <string>

#include "bench_common.h"
#include "core/keyed_stream_kernel.h"
#include "core/parallel.h"
#include "data/clinical_gen.h"
#include "models/lstm_classifier.h"
#include "nn/lstm.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "tensor/gemm_kernel.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace cppflare;
using tensor::Tensor;

/// CPUs this process may run on.
std::int64_t host_cores() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

/// Sets the compute budget and labels the row with it, or skips the row
/// (returning false) when the budget exceeds the host's cores.
bool use_threads(benchmark::State& state, std::int64_t threads) {
  const std::string budget = std::to_string(threads) + " threads on " +
                             std::to_string(host_cores()) + " cores";
  if (threads > host_cores()) {
    state.SkipWithError(("skipped: " + budget).c_str());
    return false;
  }
  core::set_compute_threads(static_cast<std::size_t>(threads));
  state.SetLabel(budget);
  return true;
}

const bool kHostContext = [] {
  benchmark::AddCustomContext("host", bench::host_context_json());
  return true;
}();

void BM_GemmNN(benchmark::State& state) {
  if (!use_threads(state, state.range(1))) return;
  const std::int64_t n = state.range(0);
  std::vector<float> a(512 * 128), b(128 * n), c(512 * n);
  for (auto& x : a) x = 0.5f;
  for (auto& x : b) x = 0.25f;
  for (auto _ : state) {
    tensor::gemm_nn(a.data(), b.data(), c.data(), 512, 128, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 512 * 128 * n);
}
BENCHMARK(BM_GemmNN)
    ->Args({128, 1})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

void BM_GemmNT(benchmark::State& state) {
  if (!use_threads(state, state.range(1))) return;
  const std::int64_t n = state.range(0);
  std::vector<float> a(512 * 128), b(n * 128), c(512 * n);
  for (auto& x : a) x = 0.5f;
  for (auto& x : b) x = 0.25f;
  for (auto _ : state) {
    tensor::gemm_nt(a.data(), b.data(), c.data(), 512, 128, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 512 * 128 * n);
}
BENCHMARK(BM_GemmNT)
    ->Args({128, 1})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

void BM_GemmTN(benchmark::State& state) {
  if (!use_threads(state, state.range(1))) return;
  const std::int64_t n = state.range(0);
  std::vector<float> a(512 * 128), b(512 * n), c(128 * n);
  for (auto& x : a) x = 0.5f;
  for (auto& x : b) x = 0.25f;
  for (auto _ : state) {
    tensor::gemm_tn(a.data(), b.data(), c.data(), 512, 128, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 512 * 128 * n);
}
BENCHMARK(BM_GemmTN)
    ->Args({128, 1})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

// The GEMMs of one training step of the paper's BERT (hidden 128, 6 heads
// of 22, FFN 512) on a batch of 16 x 32 tokens, at one thread: range(0) is
// the form (0 nn, 1 nt, 2 tn), then m, k, n as passed to the kernel. The
// linear layers run nt forward and nn/tn backward over 512 token rows; the
// attention runs 32 x 22 x 32 products per head.
void BM_GemmPaper(benchmark::State& state) {
  if (!use_threads(state, 1)) return;
  static const char* const kForms[] = {"nn", "nt", "tn"};
  const std::int64_t form = state.range(0);
  const std::int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  std::vector<float> a(m * k, 0.5f), b(form == 2 ? m * n : k * n, 0.25f);
  std::vector<float> c(form == 2 ? k * n : m * n);
  const auto gemm = form == 0 ? tensor::gemm_nn : form == 1 ? tensor::gemm_nt
                                                             : tensor::gemm_tn;
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), m, k, n, tensor::GemmOut::kAccumulate);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  state.SetLabel(std::string(tensor::gemm_kernel_name(tensor::gemm_active_kernel())) +
                 " " + kForms[form]);
}
BENCHMARK(BM_GemmPaper)
    ->ArgNames({"form", "m", "k", "n"})
    ->ArgsProduct({{0, 1, 2}, {512}, {128}, {132}})   // Q, K, V projections
    ->ArgsProduct({{0, 1, 2}, {512}, {132}, {128}})   // attention output
    ->ArgsProduct({{0, 1, 2}, {512}, {128}, {512}})   // FFN up
    ->ArgsProduct({{0, 1, 2}, {512}, {512}, {128}})   // FFN down
    ->ArgsProduct({{0, 1, 2}, {32}, {22}, {32}});     // one attention head

void BM_SoftmaxLastdim(benchmark::State& state) {
  core::Rng rng(1);
  Tensor x = Tensor::randn({96, 32, 32}, rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::softmax_lastdim(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLastdim);

void BM_LayerNorm(benchmark::State& state) {
  core::Rng rng(2);
  Tensor x = Tensor::randn({512, 128}, rng);
  Tensor gamma = Tensor::full({128}, 1.0f);
  Tensor beta = Tensor::zeros({128});
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::layer_norm(x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm);

void BM_AttentionForward(benchmark::State& state) {
  if (!use_threads(state, state.range(0))) return;
  core::Rng rng(3);
  nn::MultiHeadSelfAttention attn(128, 6, 22, 0.0f, rng);
  attn.set_training(false);
  Tensor x = Tensor::randn({8, 32, 128}, rng);
  core::Rng fw(4);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = attn.forward(x, Tensor{}, fw);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(1)->Arg(4);

void BM_LstmForward(benchmark::State& state) {
  if (!use_threads(state, state.range(0))) return;
  core::Rng rng(5);
  nn::Lstm lstm(128, 128, 3, 0.0f, rng);
  lstm.set_training(false);
  Tensor x = Tensor::randn({8, 32, 128}, rng);
  core::Rng fw(6);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = lstm.forward(x, fw);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LstmForward)->Arg(1)->Arg(4);

void BM_EmbeddingLookup(benchmark::State& state) {
  core::Rng rng(7);
  Tensor w = Tensor::randn({1000, 128}, rng);
  std::vector<std::int64_t> ids(512);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = (i * 37) % 1000;
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::embedding(w, ids);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EmbeddingLookup);

void BM_CrossEntropy(benchmark::State& state) {
  core::Rng rng(8);
  Tensor logits = Tensor::randn({512, 1000}, rng);
  std::vector<std::int64_t> targets(512);
  for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = (i * 13) % 1000;
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor loss = tensor::cross_entropy(logits, targets);
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_CrossEntropy);

/// Dropout forward and backward over the elements one paper-config BERT
/// step drops (≈2.8M), at p = 0.1: the keyed mask words are generated in
/// both passes. Labelled with the ChaCha20 kernel that produced them.
void BM_Dropout(benchmark::State& state) {
  if (!use_threads(state, state.range(0))) return;
  constexpr std::int64_t kElements = 2'800'000;
  core::Rng rng(15);
  Tensor x = Tensor::randn({kElements}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
  x.impl()->ensure_grad();
  std::vector<float> upstream(kElements, 1.0f);
  for (auto _ : state) {
    Tensor y = tensor::dropout(x, 0.1f, rng);
    tensor::TensorImpl& node = *y.impl();
    node.grad.swap(upstream);
    node.backward_fn(node);
    node.grad.swap(upstream);
    benchmark::DoNotOptimize(x.impl()->grad.data());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.SetLabel(std::string("prg=") +
                 core::keyed_stream_kernel_name(core::keyed_stream_active_kernel()) + ", " +
                 std::to_string(state.range(0)) + " threads on " +
                 std::to_string(host_cores()) + " cores");
}
BENCHMARK(BM_Dropout)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The clinical vocabulary size of roundbench's paper job.
std::int64_t paper_vocab() {
  train::ExperimentScale scale;
  scale.max_seq_len = 32;
  scale.num_drugs = 120;
  scale.num_diagnoses = 160;
  scale.num_procedures = 80;
  const data::ClinicalCohortGenerator generator(scale.generator_config());
  return static_cast<std::int64_t>(generator.build_vocabulary().size());
}

/// One Adam update of Table II's BERT (2.47M parameters) from fixed
/// gradients.
void BM_AdamStep(benchmark::State& state) {
  core::Rng rng(16);
  auto model = models::make_classifier(models::ModelConfig::bert(paper_vocab(), 32), rng);
  std::int64_t params = 0;
  for (Tensor& p : model->parameters()) {
    for (float& g : p.mutable_grad()) g = static_cast<float>(rng.normal(0.0, 1e-2));
    params += p.numel();
  }
  optim::Adam opt(model->parameters(), 1e-3f);
  for (auto _ : state) {
    opt.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * params);
  state.SetLabel(std::to_string(params) + " params");
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMillisecond);

void BM_BertMiniTrainStep(benchmark::State& state) {
  if (!use_threads(state, state.range(0))) return;
  core::Rng rng(9);
  models::ModelConfig config = models::ModelConfig::bert_mini(400, 32);
  auto model = models::make_classifier(config, rng);
  data::Batch batch;
  batch.batch_size = 8;
  batch.seq_len = 32;
  core::Rng ids_rng(10);
  for (int i = 0; i < 8; ++i) {
    for (int t = 0; t < 32; ++t) batch.ids.push_back(ids_rng.uniform_int(5, 399));
    batch.lengths.push_back(32);
    batch.labels.push_back(i % 2);
  }
  core::Rng fw(11);
  for (auto _ : state) {
    tensor::Tensor loss =
        tensor::cross_entropy(model->class_logits(batch, fw), batch.labels);
    model->zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_BertMiniTrainStep)->Arg(1)->Arg(4);

/// Minor page faults and system CPU time of this process so far.
struct Faults {
  long minor = 0;
  double sys_ms = 0.0;
  static Faults now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return {u.ru_minflt, u.ru_stime.tv_sec * 1e3 + u.ru_stime.tv_usec / 1e3};
  }
};

/// One local training step of the paper's job: Table II's BERT on the
/// clinical vocabulary, a batch of 16 sequences of 32 tokens, dropout on,
/// forward, backward and an Adam step — what each site of roundbench's
/// clinical-bert-tcp runs per round. The counters report the fresh pages a
/// steady-state step faults in and the kernel time that costs.
void BM_BertTrainStep(benchmark::State& state) {
  if (!use_threads(state, state.range(0))) return;
  const std::int64_t vocab = paper_vocab();
  core::Rng rng(12);
  auto model = models::make_classifier(models::ModelConfig::bert(vocab, 32), rng);
  model->set_training(true);
  optim::Adam opt(model->parameters(), 1e-3f);
  data::Batch batch;
  batch.batch_size = 16;
  batch.seq_len = 32;
  core::Rng ids_rng(13);
  for (int i = 0; i < 16; ++i) {
    for (int t = 0; t < 32; ++t) batch.ids.push_back(ids_rng.uniform_int(5, vocab - 1));
    batch.lengths.push_back(32 - (i % 4) * 5);
    batch.labels.push_back(i % 2);
  }
  core::Rng fw(14);
  const auto step = [&] {
    tensor::Tensor loss =
        tensor::cross_entropy(model->class_logits(batch, fw), batch.labels);
    model->zero_grad();
    loss.backward();
    opt.step();
    return loss.item();
  };
  step();  // warm-up: first-touch of parameters, optimizer state and caches
  const Faults before = Faults::now();
  for (auto _ : state) benchmark::DoNotOptimize(step());
  const Faults after = Faults::now();
  const auto steps = static_cast<double>(state.iterations());
  state.counters["minor_faults_per_step"] =
      static_cast<double>(after.minor - before.minor) / steps;
  state.counters["sys_ms_per_step"] = (after.sys_ms - before.sys_ms) / steps;
}
// Long enough for several steps, so the per-step counters average.
BENCHMARK(BM_BertTrainStep)->Arg(1)->Arg(4)->MinTime(2.0)->Unit(benchmark::kMillisecond);

}  // namespace
