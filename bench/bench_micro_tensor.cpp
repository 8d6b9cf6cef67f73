// Microbenchmarks for the tensor/NN substrate (google-benchmark).
//
// The GEMM and model benches take the compute-thread budget as their last
// range argument, so one run sweeps 1..N threads and `scripts/bench.sh` can
// record the scaling curve in a single JSON file. A budget above the host's
// cores would measure oversubscription, not scaling: such rows are skipped
// and say so in their error message.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <string>

#include "core/parallel.h"
#include "models/lstm_classifier.h"
#include "nn/lstm.h"
#include "nn/transformer.h"
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

}  // namespace
