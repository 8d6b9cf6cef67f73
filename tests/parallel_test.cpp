// Compute-backend tests: parallel_for mechanics plus the determinism
// contract (bitwise-identical results for 1 vs N compute threads) on the
// kernels and models built on top of it.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "data/clinical_gen.h"
#include "models/lstm_classifier.h"
#include "nn/lstm.h"
#include "nn/transformer.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/experiment.h"

namespace cppflare {
namespace {

using tensor::Tensor;

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  core::set_compute_threads(4);
  const std::int64_t n = 10'000;
  std::vector<int> hits(n, 0);
  core::parallel_for(0, n, 97, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, ChunkDecompositionIsGrainSized) {
  core::set_compute_threads(4);
  std::mutex mu;
  std::set<std::pair<std::int64_t, std::int64_t>> chunks;
  core::parallel_for(0, 1000, 64, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.insert({b, e});
  });
  // ceil(1000/64) = 16 chunks; all grain-sized except the tail.
  ASSERT_EQ(chunks.size(), 16u);
  std::int64_t expect = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect);
    EXPECT_EQ(e - b, b + 64 <= 1000 ? 64 : 1000 - b);
    expect = e;
  }
  EXPECT_EQ(expect, 1000);
}

TEST(ParallelFor, EmptyRangeNeverCallsFn) {
  bool called = false;
  core::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  core::parallel_for(5, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  core::set_compute_threads(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      core::parallel_for(0, 1000, 10,
                         [&](std::int64_t b, std::int64_t) {
                           ran.fetch_add(1);
                           if (b == 500) throw std::runtime_error("chunk boom");
                         }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The backend must stay usable after a failed region.
  std::atomic<std::int64_t> sum{0};
  core::parallel_for(0, 100, 10, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ParallelFor, NestedCallRunsSerialInline) {
  core::set_compute_threads(4);
  EXPECT_FALSE(core::in_parallel_region());
  std::atomic<bool> saw_region{false};
  std::atomic<bool> nested_ok{true};
  core::parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
    if (!core::in_parallel_region()) nested_ok = false;
    saw_region = true;
    const std::thread::id outer = std::this_thread::get_id();
    std::int64_t expect = 0;
    core::parallel_for(0, 100, 10, [&](std::int64_t b, std::int64_t e) {
      // Nested chunks must run on the same thread, in ascending order.
      if (std::this_thread::get_id() != outer) nested_ok = false;
      if (b != expect) nested_ok = false;
      expect = e;
    });
    if (expect != 100) nested_ok = false;
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_TRUE(nested_ok.load());
  EXPECT_FALSE(core::in_parallel_region());
}

TEST(ParallelFor, BudgetOneRunsInOrderOnCallingThread) {
  core::set_compute_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::int64_t expect = 0;
  core::parallel_for(0, 1000, 64, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, expect);
    expect = e;
  });
  EXPECT_EQ(expect, 1000);
}

TEST(ComputeThreads, SetGetAndValidation) {
  core::set_compute_threads(3);
  EXPECT_EQ(core::compute_threads(), 3u);
  EXPECT_THROW(core::set_compute_threads(0), ConfigError);
  // An explicit setting wins over the simulator's auto division.
  EXPECT_EQ(core::set_compute_threads_if_default(7), 3u);
  EXPECT_EQ(core::compute_threads(), 3u);
}

// ---- bitwise determinism: 1 thread vs N threads ----------------------------

std::vector<float> snapshot(const Tensor& t) { return t.vec(); }

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " differs between thread budgets";
}

struct FwdBwd {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

template <typename Fn>
FwdBwd run_at_budget(std::size_t budget, Fn&& fn) {
  core::set_compute_threads(budget);
  return fn();
}

TEST(Determinism, MatmulForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(11);
    Tensor a = Tensor::randn({96, 80}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::randn({80, 64}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor loss = tensor::mean_all(tensor::matmul(a, b));
    loss.backward();
    return FwdBwd{snapshot(loss), {a.grad(), b.grad()}};
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "matmul loss");
  expect_bitwise_equal(serial.grads[0], parallel.grads[0], "dA");
  expect_bitwise_equal(serial.grads[1], parallel.grads[1], "dB");
}

TEST(Determinism, LinearForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(12);
    Tensor x = Tensor::randn({64, 96}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor w = Tensor::randn({72, 96}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::randn({72}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor y = tensor::linear(x, w, b);
    FwdBwd r;
    r.out = snapshot(y);
    tensor::mean_all(y).backward();
    r.grads = {x.grad(), w.grad(), b.grad()};
    return r;
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "linear y");
  expect_bitwise_equal(serial.grads[0], parallel.grads[0], "dx");
  expect_bitwise_equal(serial.grads[1], parallel.grads[1], "dw");
  expect_bitwise_equal(serial.grads[2], parallel.grads[2], "db");
}

TEST(Determinism, TransformerForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(13);
    nn::TransformerEncoderLayer layer(32, 2, 16, 64, /*dropout_p=*/0.0f, rng);
    Tensor x = Tensor::randn({4, 8, 32}, rng);
    core::Rng fw(14);
    Tensor y = layer.forward(x, Tensor(), fw);
    FwdBwd r;
    r.out = snapshot(y);
    tensor::mean_all(y).backward();
    for (const Tensor& p : layer.parameters()) r.grads.push_back(p.grad());
    return r;
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "transformer out");
  ASSERT_EQ(serial.grads.size(), parallel.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    expect_bitwise_equal(serial.grads[i], parallel.grads[i], "transformer grad");
  }
}

TEST(Determinism, LstmForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(15);
    nn::Lstm lstm(24, 32, 2, /*dropout_p=*/0.0f, rng);
    Tensor x = Tensor::randn({4, 12, 24}, rng);
    core::Rng fw(16);
    Tensor y = lstm.forward(x, fw);
    FwdBwd r;
    r.out = snapshot(y);
    tensor::mean_all(y).backward();
    for (const Tensor& p : lstm.parameters()) r.grads.push_back(p.grad());
    return r;
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "lstm out");
  ASSERT_EQ(serial.grads.size(), parallel.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    expect_bitwise_equal(serial.grads[i], parallel.grads[i], "lstm grad");
  }
}

// Dropout-on twins of the two cases above: the keyed mask is a function of
// (key, element index), so it is the same at every budget.
TEST(Determinism, TransformerDropoutForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(13);
    nn::TransformerEncoderLayer layer(32, 2, 16, 64, /*dropout_p=*/0.1f, rng);
    Tensor x = Tensor::randn({4, 8, 32}, rng);
    core::Rng fw(14);
    Tensor y = layer.forward(x, Tensor(), fw);
    FwdBwd r;
    r.out = snapshot(y);
    tensor::mean_all(y).backward();
    for (const Tensor& p : layer.parameters()) r.grads.push_back(p.grad());
    return r;
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "transformer out");
  ASSERT_EQ(serial.grads.size(), parallel.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    expect_bitwise_equal(serial.grads[i], parallel.grads[i], "transformer grad");
  }
}

TEST(Determinism, LstmDropoutForwardBackwardBitwise1vs4) {
  auto run = [] {
    core::Rng rng(15);
    nn::Lstm lstm(24, 32, 2, /*dropout_p=*/0.1f, rng);
    Tensor x = Tensor::randn({4, 12, 24}, rng);
    core::Rng fw(16);
    Tensor y = lstm.forward(x, fw);
    FwdBwd r;
    r.out = snapshot(y);
    tensor::mean_all(y).backward();
    for (const Tensor& p : lstm.parameters()) r.grads.push_back(p.grad());
    return r;
  };
  const FwdBwd serial = run_at_budget(1, run);
  const FwdBwd parallel = run_at_budget(4, run);
  expect_bitwise_equal(serial.out, parallel.out, "lstm out");
  ASSERT_EQ(serial.grads.size(), parallel.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    expect_bitwise_equal(serial.grads[i], parallel.grads[i], "lstm grad");
  }
}

TEST(Determinism, TrainingStateDictBitwise1vs4) {
  auto train = [](std::size_t budget) {
    core::set_compute_threads(budget);
    core::Rng rng(17);
    nn::TransformerEncoderLayer model(32, 2, 16, 64, /*dropout_p=*/0.0f, rng);
    optim::Adam opt(model.parameters(), 1e-2f);
    core::Rng data_rng(18);
    for (int step = 0; step < 3; ++step) {
      Tensor x = Tensor::randn({4, 8, 32}, data_rng);
      core::Rng fw(19);
      Tensor loss = tensor::mean_all(model.forward(x, Tensor(), fw));
      loss.backward();
      opt.step();
      opt.zero_grad();
    }
    return model.state_dict();
  };
  const nn::StateDict serial = train(1);
  const nn::StateDict parallel = train(4);
  ASSERT_TRUE(serial.congruent_with(parallel));
  for (const auto& [name, blob] : serial.entries()) {
    const auto& other = parallel.at(name).values;
    ASSERT_EQ(blob.values.size(), other.size());
    EXPECT_EQ(std::memcmp(blob.values.data(), other.data(),
                          other.size() * sizeof(float)),
              0)
        << "parameter " << name << " differs between thread budgets";
  }
}

/// One local step of the paper's job at its shapes: Table II's BERT on the
/// clinical vocabulary, 16 sequences of 32 tokens, dropout on, one Adam
/// step. Every GEMM, GELU, softmax and dropout of the step is on this path.
nn::StateDict paper_bert_step(std::size_t budget) {
  train::ExperimentScale scale;
  scale.max_seq_len = 32;
  scale.num_drugs = 120;
  scale.num_diagnoses = 160;
  scale.num_procedures = 80;
  const auto vocab = static_cast<std::int64_t>(
      data::ClinicalCohortGenerator(scale.generator_config()).build_vocabulary().size());
  core::set_compute_threads(budget);
  core::Rng rng(21);
  auto model = models::make_classifier(models::ModelConfig::bert(vocab, 32), rng);
  model->set_training(true);
  optim::Adam opt(model->parameters(), 1e-3f);
  data::Batch batch;
  batch.batch_size = 16;
  batch.seq_len = 32;
  core::Rng ids(22);
  for (int i = 0; i < 16; ++i) {
    for (int t = 0; t < 32; ++t) batch.ids.push_back(ids.uniform_int(5, vocab - 1));
    batch.lengths.push_back(32 - (i % 4) * 5);
    batch.labels.push_back(i % 2);
  }
  core::Rng fw(23);
  Tensor loss = tensor::cross_entropy(model->class_logits(batch, fw), batch.labels);
  loss.backward();
  opt.step();
  return model->state_dict();
}

TEST(Determinism, BertTrainingStepBitwise1vs4) {
  const nn::StateDict serial = paper_bert_step(1);
  const nn::StateDict parallel = paper_bert_step(4);
  ASSERT_TRUE(serial.congruent_with(parallel));
  for (const auto& [name, blob] : serial.entries()) {
    const auto& other = parallel.at(name).values;
    ASSERT_EQ(blob.values.size(), other.size());
    EXPECT_EQ(std::memcmp(blob.values.data(), other.data(), other.size() * sizeof(float)), 0)
        << "parameter " << name << " differs between thread budgets";
  }
}

TEST(Determinism, BertStepGoldenHash) {
  // FNV-1a over every state-dict entry (name bytes, then value bits, in
  // name order) after the paper-config step. Release (x86-64-v3) and the
  // sanitizer builds (-O1, baseline x86-64) must both match: the training
  // path is compiled without multiply-add contraction, the GEMM and GELU
  // tiers are picked by CPUID, and the dropout mask is a keyed stream.
  const nn::StateDict state = paper_bert_step(1);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t byte) { h = (h ^ byte) * 0x100000001b3ull; };
  for (const auto& [name, blob] : state.entries()) {
    for (const char c : name) mix(static_cast<std::uint8_t>(c));
    for (const float v : blob.values) {
      std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      for (int byte = 0; byte < 4; ++byte, bits >>= 8) mix(static_cast<std::uint8_t>(bits));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  EXPECT_STREQ(hex, "1b07c8d2cec7f802");
}

}  // namespace
}  // namespace cppflare
