#include "flare/aggregator.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "flare/fold_kernels.h"
#include "flare/hierarchy.h"

namespace cppflare::flare {
namespace {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

Dxo weights_dxo(std::vector<float> w, std::int64_t samples) {
  Dxo dxo(DxoKind::kWeights, dict_of(std::move(w)));
  dxo.set_meta_int(Dxo::kMetaNumSamples, samples);
  return dxo;
}

class AggregatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

TEST_F(AggregatorTest, WeightedAverageBySamples) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0, 0}), 0);
  ASSERT_TRUE(agg.accept("site-1", weights_dxo({1, 1}, 300)));
  ASSERT_TRUE(agg.accept("site-2", weights_dxo({4, 0}, 100)));
  const nn::StateDict out = agg.aggregate();
  // (300*1 + 100*4) / 400 = 1.75 ; (300*1 + 100*0) / 400 = 0.75
  EXPECT_NEAR(out.at("w").values[0], 1.75f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 0.75f, 1e-5f);
}

TEST_F(AggregatorTest, UniformAverageIgnoresSamples) {
  FedAvgAggregator agg(false);
  agg.reset(dict_of({0, 0}), 0);
  agg.accept("site-1", weights_dxo({1, 1}, 300));
  agg.accept("site-2", weights_dxo({4, 0}, 100));
  const nn::StateDict out = agg.aggregate();
  EXPECT_NEAR(out.at("w").values[0], 2.5f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 0.5f, 1e-5f);
}

TEST_F(AggregatorTest, WeightDiffAddsToGlobal) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({10, 20}), 2);
  Dxo d1(DxoKind::kWeightDiff, dict_of({1, -1}));
  d1.set_meta_int(Dxo::kMetaNumSamples, 1);
  Dxo d2(DxoKind::kWeightDiff, dict_of({3, 1}));
  d2.set_meta_int(Dxo::kMetaNumSamples, 1);
  agg.accept("a", d1);
  agg.accept("b", d2);
  const nn::StateDict out = agg.aggregate();
  EXPECT_NEAR(out.at("w").values[0], 12.0f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 20.0f, 1e-5f);
}

TEST_F(AggregatorTest, RejectsDuplicateSite) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_TRUE(agg.accept("a", weights_dxo({1}, 1)));
  EXPECT_FALSE(agg.accept("a", weights_dxo({2}, 1)));
  EXPECT_EQ(agg.accepted_count(), 1);
}

TEST_F(AggregatorTest, RejectsMixedKindsWithinRound) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_TRUE(agg.accept("a", weights_dxo({1}, 1)));
  Dxo diff(DxoKind::kWeightDiff, dict_of({1}));
  diff.set_meta_int(Dxo::kMetaNumSamples, 1);
  EXPECT_FALSE(agg.accept("b", diff));
}

TEST_F(AggregatorTest, RejectsIncongruentModel) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0, 0}), 0);
  EXPECT_FALSE(agg.accept("a", weights_dxo({1}, 1)));  // wrong size
  nn::StateDict renamed;
  renamed.insert("other", {{2}, {1, 1}});
  Dxo bad(DxoKind::kWeights, renamed);
  bad.set_meta_int(Dxo::kMetaNumSamples, 1);
  EXPECT_FALSE(agg.accept("b", bad));
}

TEST_F(AggregatorTest, RejectsMetricsOnlyAndBadWeights) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  Dxo metrics;
  EXPECT_FALSE(agg.accept("a", metrics));
  Dxo zero_samples = weights_dxo({1}, 0);
  EXPECT_FALSE(agg.accept("b", zero_samples));
}

TEST_F(AggregatorTest, AggregateWithoutContributionsThrows) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_THROW(agg.aggregate(), Error);
}

TEST_F(AggregatorTest, MetricsAreSampleWeighted) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 5);
  Dxo a = weights_dxo({0}, 300);
  a.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
  a.set_meta_double(Dxo::kMetaValidAcc, 0.9);
  a.set_meta_double(Dxo::kMetaValidLoss, 0.5);
  Dxo b = weights_dxo({0}, 100);
  b.set_meta_double(Dxo::kMetaTrainLoss, 2.0);
  b.set_meta_double(Dxo::kMetaValidAcc, 0.5);
  b.set_meta_double(Dxo::kMetaValidLoss, 1.5);
  agg.accept("a", a);
  agg.accept("b", b);
  agg.aggregate();
  const RoundMetrics m = agg.metrics();
  EXPECT_EQ(m.round, 5);
  EXPECT_EQ(m.num_contributions, 2);
  EXPECT_EQ(m.total_samples, 400);
  EXPECT_NEAR(m.train_loss, (300 * 1.0 + 100 * 2.0) / 400, 1e-9);
  EXPECT_NEAR(m.valid_acc, (300 * 0.9 + 100 * 0.5) / 400, 1e-9);
  EXPECT_NEAR(m.valid_loss, (300 * 0.5 + 100 * 1.5) / 400, 1e-9);
}

TEST_F(AggregatorTest, ResetClearsState) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({2}, 1));
  agg.aggregate();
  agg.reset(dict_of({0}), 1);
  EXPECT_EQ(agg.accepted_count(), 0);
  // The same site may contribute again in the new round.
  EXPECT_TRUE(agg.accept("a", weights_dxo({4}, 1)));
  EXPECT_NEAR(agg.aggregate().at("w").values[0], 4.0f, 1e-6f);
}

TEST_F(AggregatorTest, NameReflectsMode) {
  EXPECT_EQ(FedAvgAggregator(true).name(), "FedAvg(weighted)");
  EXPECT_EQ(FedAvgAggregator(false).name(), "FedAvg(uniform)");
}

TEST_F(AggregatorTest, SingleContributorPassthrough) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({7, -3}), 0);
  agg.accept("solo", weights_dxo({1.5f, 2.5f}, 123));
  const nn::StateDict out = agg.aggregate();
  EXPECT_FLOAT_EQ(out.at("w").values[0], 1.5f);
  EXPECT_FLOAT_EQ(out.at("w").values[1], 2.5f);
}

// ---- the one-pass FedAvg tree against the recursive composition ----------

/// The recursive reduction FedAvg ran before the one-pass fold, kept as the
/// bitwise reference: a leaf is zeros_like + axpy(w, x), a node
/// left.axpy(1.0f, right) split at the largest power of two below n.
struct RefLeaf {
  float weight;
  const nn::StateDict* data;
};

nn::StateDict recursive_tree_sum(const RefLeaf* items, std::size_t n) {
  if (n == 1) {
    nn::StateDict leaf = items[0].data->zeros_like();
    leaf.axpy(items[0].weight, *items[0].data);
    return leaf;
  }
  std::size_t p = 1;
  while (p * 2 < n) p *= 2;
  nn::StateDict left = recursive_tree_sum(items, p);
  const nn::StateDict right = recursive_tree_sum(items + p, n - p);
  left.axpy(1.0f, right);
  return left;
}

/// FedAvg's result as the recursive composition computed it: tree sum,
/// scale by 1/weight_sum, then for a diff round the global plus the average.
nn::StateDict recursive_fedavg(const std::vector<RefLeaf>& leaves,
                               const std::vector<double>& weights,
                               const nn::StateDict& global, bool diff) {
  nn::StateDict avg = recursive_tree_sum(leaves.data(), leaves.size());
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += w;
  avg.scale(static_cast<float>(1.0 / weight_sum));
  if (!diff) return avg;
  nn::StateDict next = global;
  next.axpy(1.0f, avg);
  return next;
}

bool bitwise_equal(const nn::StateDict& a, const nn::StateDict& b) {
  if (!a.congruent_with(b)) return false;
  auto it = b.entries().begin();
  for (const auto& [name, blob] : a.entries()) {
    const auto& other = (it++)->second.values;
    if (blob.values.size() != other.size()) return false;
    if (!blob.values.empty() &&
        std::memcmp(blob.values.data(), other.data(),
                    blob.values.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Values in [-1, 1) with ±0, subnormals and ±FLT_MAX/4 sprinkled at
/// site-dependent positions (sample-count weights push the latter to ±inf,
/// and opposite infinities meet as NaN).
nn::StateDict tree_payload(const std::vector<std::size_t>& sizes,
                           std::uint64_t seed) {
  nn::StateDict dict;
  std::uint64_t state = seed;
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    nn::ParamBlob blob;
    blob.shape = {static_cast<std::int64_t>(sizes[t])};
    blob.values.resize(sizes[t]);
    for (std::size_t i = 0; i < sizes[t]; ++i) {
      const std::uint64_t r = next_random(state);
      float v = static_cast<float>(static_cast<double>(r >> 40) * 0x1p-23 - 1.0);
      switch ((i + seed) % 17) {
        case 0: v = 0.0f; break;
        case 1: v = -0.0f; break;
        case 2: v = FLT_TRUE_MIN * static_cast<float>(r % 1000 + 1); break;
        case 3: v = -FLT_MIN * 0.5f; break;
        case 4: v = FLT_MAX / 4; break;
        case 5: v = -FLT_MAX / 4; break;
        default: break;
      }
      blob.values[i] = v;
    }
    std::string name = "t";
    name += std::to_string(t);
    dict.insert(name, std::move(blob));
  }
  return dict;
}

std::string site_name(std::size_t i) {
  char name[16];
  std::snprintf(name, sizeof name, "site-%03zu", i);
  return name;
}

/// Runs `agg` over n contributions (revoking one when n > 2) and checks the
/// result against the recursive composition, bit for bit.
void expect_matches_recursive(Aggregator& agg, std::size_t n,
                              const std::vector<std::size_t>& sizes,
                              DxoKind kind, std::uint64_t seed) {
  const nn::StateDict global = tree_payload(sizes, seed ^ 0xabcdef);
  std::vector<Dxo> dxos;
  std::vector<std::int64_t> samples;
  for (std::size_t i = 0; i < n; ++i) {
    dxos.emplace_back(kind, tree_payload(sizes, seed * 1000 + i));
    samples.push_back(static_cast<std::int64_t>(1 + (seed * 31 + i * 97) % 1000));
    dxos.back().set_meta_int(Dxo::kMetaNumSamples, samples.back());
  }
  agg.reset(global, 0);
  // Arrival order is reversed; the reduction runs in site-name order.
  for (std::size_t i = n; i-- > 0;) {
    ASSERT_TRUE(agg.accept(site_name(i), dxos[i]));
  }
  const std::size_t revoked = n > 2 ? n / 2 : n;
  if (revoked < n) {
    ASSERT_TRUE(agg.revoke(site_name(revoked)));
  }

  std::vector<RefLeaf> leaves;
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == revoked) continue;
    leaves.push_back(RefLeaf{static_cast<float>(samples[i]), &dxos[i].data()});
    weights.push_back(static_cast<double>(samples[i]));
  }
  const nn::StateDict expected = recursive_fedavg(
      leaves, weights, global, kind == DxoKind::kWeightDiff);
  EXPECT_TRUE(bitwise_equal(agg.aggregate(), expected))
      << agg.name() << " n=" << n << " kind=" << static_cast<int>(kind);
}

TEST(FedAvgTree, OnePassEqualsRecursiveCompositionBitwise) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  const std::vector<std::size_t> small = {0, 1, kFoldChunk - 1, kFoldChunk,
                                          kFoldChunk + 1};
  for (const DxoKind kind : {DxoKind::kWeights, DxoKind::kWeightDiff}) {
    for (std::size_t n = 1; n <= 17; ++n) {
      FedAvgAggregator flat(true);
      expect_matches_recursive(flat, n, small, kind, n);
      HierarchicalFedAvgAggregator hier(true, 4);
      expect_matches_recursive(hier, n, small, kind, n);
    }
    // 256 sites in 16-site blocks: the leaf partials and the root are both
    // one-pass folds.
    HierarchicalFedAvgAggregator wide(true, 16);
    expect_matches_recursive(wide, 256, small, kind, 256);
    FedAvgAggregator wide_flat(true);
    expect_matches_recursive(wide_flat, 256, small, kind, 257);
    // The paper's BERT payload size in one tensor, 8 sites.
    FedAvgAggregator bert(true);
    expect_matches_recursive(bert, 8, {2472082}, kind, 8);
  }
  core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
}

TEST(FedAvgTree, FoldTreeRejectsEmptyAndIncongruentInputs) {
  EXPECT_THROW(fold_tree(nullptr, 0), Error);
  const nn::StateDict a = dict_of({1, 2, 3});
  const nn::StateDict b = dict_of({1, 2});
  const FoldLeaf leaves[] = {{&a, 1.0f, false}, {&b, 1.0f, false}};
  EXPECT_THROW(fold_tree(leaves, 2), Error);
}

}  // namespace
}  // namespace cppflare::flare
