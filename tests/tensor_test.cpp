#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "core/bytes.h"
#include "core/keyed_stream.h"
#include "core/sha256.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "test_util.h"

namespace cppflare::tensor {
namespace {

using cppflare::testing::expect_tensor_eq;

TEST(TensorBasics, ZerosHasShapeAndZeroData) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorBasics, FullFillsValue) {
  Tensor t = Tensor::full({4}, 2.5f);
  expect_tensor_eq(t, {2.5f, 2.5f, 2.5f, 2.5f});
}

TEST(TensorBasics, FromDataValidatesCount) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f, 2.0f}), ShapeError);
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.data()[3], 4.0f);
}

TEST(TensorBasics, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::scalar(3.5f).item(), 3.5f);
  Tensor t = Tensor::zeros({2});
  EXPECT_THROW(t.item(), ShapeError);
}

TEST(TensorBasics, SizeHandlesNegativeAxes) {
  Tensor t = Tensor::zeros({2, 3, 5});
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 5);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), ShapeError);
}

TEST(TensorBasics, RandnDeterministicUnderSeed) {
  core::Rng a(42), b(42);
  Tensor x = Tensor::randn({8}, a);
  Tensor y = Tensor::randn({8}, b);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(x.data()[i], y.data()[i]);
}

TEST(TensorBasics, NumelOfEmptyShapeIsOne) {
  EXPECT_EQ(numel_of({}), 1);
  EXPECT_EQ(numel_of({3, 0}), 0);
}

TEST(TensorBasics, ShapeToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(TensorOpsForward, AddSubMul) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  expect_tensor_eq(add(a, b), {11, 22, 33});
  expect_tensor_eq(sub(b, a), {9, 18, 27});
  expect_tensor_eq(mul(a, b), {10, 40, 90});
}

TEST(TensorOpsForward, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2});
  Tensor b = Tensor::zeros({3});
  EXPECT_THROW(add(a, b), ShapeError);
  EXPECT_THROW(mul(a, b), ShapeError);
}

TEST(TensorOpsForward, ScalarOps) {
  Tensor a = Tensor::from_data({2}, {1, -2});
  expect_tensor_eq(add_scalar(a, 0.5f), {1.5f, -1.5f});
  expect_tensor_eq(mul_scalar(a, -2.0f), {-2, 4});
  expect_tensor_eq(neg(a), {-1, 2});
}

TEST(TensorOpsForward, AddBiasBroadcastsOverRows) {
  Tensor x = Tensor::from_data({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = Tensor::from_data({3}, {1, 2, 3});
  expect_tensor_eq(add_bias(x, b), {1, 2, 3, 2, 3, 4});
  Tensor bad = Tensor::from_data({2}, {1, 2});
  EXPECT_THROW(add_bias(x, bad), ShapeError);
}

TEST(TensorOpsForward, Activations) {
  Tensor a = Tensor::from_data({3}, {-1, 0, 2});
  expect_tensor_eq(relu(a), {0, 0, 2});
  expect_tensor_eq(tanh_op(a), {std::tanh(-1.0f), 0.0f, std::tanh(2.0f)}, 1e-6f);
  expect_tensor_eq(sigmoid(a),
                   {1.0f / (1.0f + std::exp(1.0f)), 0.5f,
                    1.0f / (1.0f + std::exp(-2.0f))},
                   1e-6f);
}

TEST(TensorOpsForward, GeluMatchesReference) {
  // Reference values from the tanh-approximation formula.
  Tensor a = Tensor::from_data({3}, {-1.0f, 0.0f, 1.0f});
  Tensor y = gelu(a);
  EXPECT_NEAR(y.data()[0], -0.158808f, 1e-4f);
  EXPECT_NEAR(y.data()[1], 0.0f, 1e-6f);
  EXPECT_NEAR(y.data()[2], 0.841192f, 1e-4f);
}

TEST(TensorOpsForward, MatmulSmall) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  expect_tensor_eq(matmul(a, b), {58, 64, 139, 154});
  EXPECT_THROW(matmul(a, a), ShapeError);
}

TEST(TensorOpsForward, LinearMatchesManual) {
  // y = x W^T + b with W in [out,in] layout.
  Tensor x = Tensor::from_data({1, 2}, {1, 2});
  Tensor w = Tensor::from_data({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor b = Tensor::from_data({3}, {0.5f, -0.5f, 0.0f});
  expect_tensor_eq(linear(x, w, b), {1.5f, 1.5f, 3.0f});
  expect_tensor_eq(linear(x, w, Tensor{}), {1.0f, 2.0f, 3.0f});
}

TEST(TensorOpsForward, BmmAndBmmNt) {
  // batch 2 of 1x2 @ 2x1.
  Tensor a = Tensor::from_data({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2, 1}, {5, 6, 7, 8});
  expect_tensor_eq(bmm(a, b), {17, 53});
  // bmm_nt: same result via transposed layout of b.
  Tensor bt = Tensor::from_data({2, 1, 2}, {5, 6, 7, 8});
  expect_tensor_eq(bmm_nt(a, bt), {17, 53});
}

TEST(TensorOpsForward, ReshapePreservesDataOrder) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = reshape(a, {3, 2});
  expect_tensor_eq(r, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_THROW(reshape(a, {4, 2}), ShapeError);
}

TEST(TensorOpsForward, PermuteTransposes2d) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = permute(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  expect_tensor_eq(t, {1, 4, 2, 5, 3, 6});
}

TEST(TensorOpsForward, PermuteHeadSplitRoundTrip) {
  // [B=1,T=2,h=2,d=2] -> [B,h,T,d] -> back.
  Tensor a = Tensor::from_data({1, 2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor p = permute(a, {0, 2, 1, 3});
  expect_tensor_eq(p, {0, 1, 4, 5, 2, 3, 6, 7});
  Tensor back = permute(p, {0, 2, 1, 3});
  expect_tensor_eq(back, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_THROW(permute(a, {0, 0, 1, 3}), ShapeError);
  EXPECT_THROW(permute(a, {0, 1}), ShapeError);
}

TEST(TensorOpsForward, SelectDim1) {
  Tensor a = Tensor::from_data({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  expect_tensor_eq(select_dim1(a, 0), {0, 1, 4, 5});
  expect_tensor_eq(select_dim1(a, 1), {2, 3, 6, 7});
  EXPECT_THROW(select_dim1(a, 2), ShapeError);
}

TEST(TensorOpsForward, SliceCols) {
  Tensor a = Tensor::from_data({2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  expect_tensor_eq(slice_cols(a, 1, 2), {1, 2, 5, 6});
  EXPECT_THROW(slice_cols(a, 3, 2), ShapeError);
  EXPECT_THROW(slice_cols(a, -1, 2), ShapeError);
}

TEST(TensorOpsForward, ConcatCols) {
  Tensor a = Tensor::from_data({2, 1}, {1, 2});
  Tensor b = Tensor::from_data({2, 2}, {3, 4, 5, 6});
  expect_tensor_eq(concat_cols({a, b}), {1, 3, 4, 2, 5, 6});
  EXPECT_THROW(concat_cols({}), ShapeError);
}

TEST(TensorOpsForward, StackDim1) {
  Tensor s0 = Tensor::from_data({2, 2}, {0, 1, 2, 3});
  Tensor s1 = Tensor::from_data({2, 2}, {4, 5, 6, 7});
  Tensor st = stack_dim1({s0, s1});
  EXPECT_EQ(st.shape(), (Shape{2, 2, 2}));
  expect_tensor_eq(st, {0, 1, 4, 5, 2, 3, 6, 7});
}

TEST(TensorOpsForward, GatherDim1) {
  Tensor a = Tensor::from_data({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  expect_tensor_eq(gather_dim1(a, {1, 0}), {2, 3, 4, 5});
  EXPECT_THROW(gather_dim1(a, {2, 0}), ShapeError);
  EXPECT_THROW(gather_dim1(a, {0}), ShapeError);
}

TEST(TensorOpsForward, Reductions) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum_all(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(mean_all(a).item(), 2.5f);
}

TEST(TensorOpsForward, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 1000, 1000, 1000});
  Tensor s = softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.data()[r * 3 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Large inputs must not overflow (max-subtraction).
  EXPECT_NEAR(s.data()[3], 1.0f / 3.0f, 1e-5f);
}

TEST(TensorOpsForward, SoftmaxOrdersProbabilities) {
  Tensor a = Tensor::from_data({1, 3}, {1, 3, 2});
  Tensor s = softmax_lastdim(a);
  EXPECT_GT(s.data()[1], s.data()[2]);
  EXPECT_GT(s.data()[2], s.data()[0]);
}

TEST(TensorOpsForward, LayerNormNormalizesRows) {
  Tensor x = Tensor::from_data({2, 4}, {1, 2, 3, 4, -2, 0, 2, 4});
  Tensor gamma = Tensor::full({4}, 1.0f);
  Tensor beta = Tensor::zeros({4});
  Tensor y = layer_norm(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 4; ++c) mean += y.data()[r * 4 + c];
    mean /= 4;
    for (int c = 0; c < 4; ++c) {
      const float d = y.data()[r * 4 + c] - mean;
      var += d * d;
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(TensorOpsForward, LayerNormAffineApplies) {
  Tensor x = Tensor::from_data({1, 2}, {0, 2});
  Tensor gamma = Tensor::from_data({2}, {2, 2});
  Tensor beta = Tensor::from_data({2}, {1, 1});
  Tensor y = layer_norm(x, gamma, beta);
  EXPECT_NEAR(y.data()[0], 1.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(y.data()[1], 1.0f + 2.0f, 1e-3f);
}

TEST(TensorOpsForward, EmbeddingLooksUpRows) {
  Tensor w = Tensor::from_data({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = embedding(w, {2, 0, 2});
  expect_tensor_eq(e, {20, 21, 0, 1, 20, 21});
  EXPECT_THROW(embedding(w, {3}), ShapeError);
  EXPECT_THROW(embedding(w, {-1}), ShapeError);
}

TEST(TensorOpsForward, CrossEntropyMatchesManual) {
  // Uniform logits: loss = log(C).
  Tensor logits = Tensor::zeros({2, 4});
  Tensor loss = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(TensorOpsForward, CrossEntropyIgnoreIndex) {
  Tensor logits = Tensor::from_data({2, 2}, {100, 0, 0, 100});
  // Second row ignored: loss comes from first row only (near zero).
  Tensor loss = cross_entropy(logits, {0, -100});
  EXPECT_NEAR(loss.item(), 0.0f, 1e-4f);
  EXPECT_THROW(cross_entropy(logits, {-100, -100}), Error);
  EXPECT_THROW(cross_entropy(logits, {0, 5}), ShapeError);
  EXPECT_THROW(cross_entropy(logits, {0}), ShapeError);
}

TEST(TensorOpsForward, DropoutZeroPIsIdentity) {
  core::Rng rng(1);
  Tensor a = Tensor::from_data({4}, {1, 2, 3, 4});
  expect_tensor_eq(dropout(a, 0.0f, rng), {1, 2, 3, 4});
}

TEST(TensorOpsForward, DropoutScalesSurvivors) {
  core::Rng rng(7);
  Tensor a = Tensor::full({1000}, 1.0f);
  Tensor d = dropout(a, 0.5f, rng);
  std::int64_t kept = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const float v = d.data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v != 0.0f) ++kept;
  }
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 600);
  EXPECT_THROW(dropout(a, 1.0f, rng), Error);
}

/// Dropout's threshold t = round(p * 2^32) and its keep probability.
std::uint32_t dropout_threshold(float p) {
  return static_cast<std::uint32_t>(std::llround(static_cast<double>(p) * 4294967296.0));
}

/// The keyed stream of the next dropout call on `rng` (which is advanced
/// exactly as dropout advances it): SHA-256("dropout" ‖ le64(word)) keying
/// ChaCha20 with a zero nonce.
core::KeyedStream next_dropout_stream(core::Rng& rng) {
  core::ByteWriter seed;
  seed.write_raw(reinterpret_cast<const std::uint8_t*>("dropout"), 7);
  seed.write_u64(rng.next_u64());
  return core::KeyedStream(core::Sha256::hash(seed.bytes().data(), seed.bytes().size()),
                           core::KeyedStream::Nonce{});
}

void expect_same_bits(const float* got, const float* want, std::size_t n,
                      const std::string& what) {
  EXPECT_EQ(std::memcmp(got, want, n * sizeof(float)), 0) << what;
}

TEST(TensorDropout, KeepRateIsBinomialWithinFiveSigma) {
  const std::int64_t n = std::int64_t{1} << 20;
  NoGradGuard guard;
  Tensor a = Tensor::full({n}, 1.0f);
  for (const float p : {0.1f, 0.5f}) {
    core::Rng rng(101);
    Tensor d = dropout(a, p, rng);
    const float scale = 1.0f / (1.0f - p);
    std::int64_t kept = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = d.data()[i];
      ASSERT_TRUE(v == 0.0f || v == scale) << "p=" << p << " element " << i;
      kept += v != 0.0f;
    }
    const double q = 1.0 - dropout_threshold(p) / 4294967296.0;
    const double mean = static_cast<double>(n) * q;
    const double sigma = std::sqrt(static_cast<double>(n) * q * (1.0 - q));
    EXPECT_LE(std::fabs(static_cast<double>(kept) - mean), 5.0 * sigma)
        << "p=" << p << " kept " << kept << " of " << n;
  }
}

TEST(TensorDropout, MaskIsTheKeyedStreamAtEveryChunkOffset) {
  const std::int64_t n = 70001;  // several parallel chunks, ragged tail
  const float p = 0.3f;
  core::Rng init(102);
  Tensor a = Tensor::randn({n}, init, 0.0f, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::randn({n}, init);

  core::Rng rng(103);
  core::Rng probe = rng;
  const core::KeyedStream stream = next_dropout_stream(probe);
  std::vector<std::uint32_t> words(static_cast<std::size_t>(n));
  stream.read(0, words.size(), words.data());
  // The same words read in ragged pieces at arbitrary offsets.
  std::vector<std::uint32_t> pieces(words.size());
  for (std::size_t first = 0, len = 1; first < pieces.size(); first += len, len = len * 7 % 3001 + 1) {
    const std::size_t count = std::min(len, pieces.size() - first);
    stream.read(first, count, pieces.data() + first);
  }
  ASSERT_EQ(std::memcmp(words.data(), pieces.data(), words.size() * sizeof(std::uint32_t)), 0);

  Tensor d = dropout(a, p, rng);
  EXPECT_EQ(rng.next_u64(), probe.next_u64()) << "dropout draws exactly one word";
  const std::uint32_t t = dropout_threshold(p);
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> want(words.size()), want_grad(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    const float factor = words[i] >= t ? scale : 0.0f;
    want[i] = a.data()[i] * factor;
    want_grad[i] = 0.0f + w.data()[i] * factor;  // accumulated into a zeroed grad
  }
  expect_same_bits(d.data(), want.data(), want.size(), "forward");
  sum_all(mul(d, w)).backward();
  expect_same_bits(a.grad().data(), want_grad.data(), want_grad.size(), "backward");

  // A longer tensor is chunked differently; its prefix mask is the same.
  core::Rng longer_rng(103);
  Tensor longer = Tensor::full({3 * n + 5}, 1.0f);
  Tensor dl = dropout(longer, p, longer_rng);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(dl.data()[i] != 0.0f, words[i] >= t) << "element " << i;
  }
}

/// The one-float-at-a-time walk: out[dst index] = in[src index].
std::vector<float> permute_reference(const std::vector<float>& in, const Shape& shape,
                                     const std::vector<std::int64_t>& perm) {
  const std::size_t rank = shape.size();
  Shape out_shape(rank);
  for (std::size_t d = 0; d < rank; ++d) out_shape[d] = shape[perm[d]];
  std::vector<float> out(in.size());
  std::vector<std::int64_t> idx(rank, 0);
  for (std::size_t linear = 0; linear < in.size(); ++linear) {
    std::int64_t rem = static_cast<std::int64_t>(linear);
    for (std::size_t k = rank; k-- > 0;) {
      idx[k] = rem % shape[k];
      rem /= shape[k];
    }
    std::int64_t dst = 0;
    for (std::size_t d = 0; d < rank; ++d) dst = dst * out_shape[d] + idx[perm[d]];
    out[static_cast<std::size_t>(dst)] = in[linear];
  }
  return out;
}

TEST(TensorPermute, RunCopyMatchesTheElementWalkForwardAndInverse) {
  const std::vector<std::pair<Shape, std::vector<std::int64_t>>> cases = {
      {{16, 32, 6, 22}, {0, 2, 1, 3}},  // the paper's head split
      {{16, 6, 32, 22}, {0, 2, 1, 3}},  // and merge
      {{2, 3, 4, 5}, {1, 0, 2, 3}},     // two trailing axes kept
      {{2, 3, 4, 5}, {3, 2, 1, 0}},     // last axis moves: element walk
      {{3, 5, 7}, {1, 0, 2}},
      {{3, 5, 7}, {2, 0, 1}},
      {{4, 9}, {1, 0}},
      {{4, 9}, {0, 1}},                 // identity: one run
      {{11}, {0}},
  };
  for (const auto& [shape, perm] : cases) {
    const std::string what = shape_to_string(shape) + " perm " +
                             shape_to_string(Shape(perm.begin(), perm.end()));
    core::Rng rng(104);
    Tensor a = Tensor::randn(shape, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    Tensor y = permute(a, perm);
    const std::vector<float> want = permute_reference(a.vec(), shape, perm);
    expect_same_bits(y.data(), want.data(), want.size(), "forward " + what);

    // Backward: a's grad is the inverse permutation of the upstream grad w.
    // Permuting the source indices tells which source element lands at
    // output j, so grad[source[j]] = w[j].
    Tensor w = Tensor::randn(y.shape(), rng);
    sum_all(mul(y, w)).backward();
    std::vector<float> ids(want.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<float>(i);
    const std::vector<float> source = permute_reference(ids, shape, perm);
    std::vector<float> want_grad(want.size());
    for (std::size_t j = 0; j < source.size(); ++j) {
      want_grad[static_cast<std::size_t>(source[j])] = w.data()[j];
    }
    expect_same_bits(a.grad().data(), want_grad.data(), want_grad.size(),
                     "inverse " + what);
  }
}

TEST(TensorStorage, OutputsDoNotDependOnRecycledStorage) {
  // Every op's forward output has numel kN, so a NaN-filled buffer of that
  // capacity released just before the op is the one it gets. Each run has
  // its own thread, hence its own empty cache: the fresh run keeps every
  // output alive (nothing is recycled), the poisoned run recycles NaN.
  static constexpr std::int64_t kN = 4096;
  const auto every_op = [](bool poison) {
    const auto poison_cache = [poison] {
      for (int i = 0; poison && i < 2; ++i) {
        std::vector<float> buffer(kN, std::numeric_limits<float>::quiet_NaN());
        storage::release(buffer);
      }
    };
    core::Rng rng(105);
    const Tensor x = Tensor::randn({64, 64}, rng);
    const Tensor y = Tensor::randn({64, 64}, rng);
    const Tensor bias = Tensor::randn({64}, rng);
    const Tensor b3 = Tensor::randn({4, 32, 16}, rng);
    const Tensor c3 = Tensor::randn({4, 16, 32}, rng);
    const Tensor x4 = Tensor::randn({4, 8, 8, 16}, rng);
    const Tensor x3 = Tensor::randn({64, 5, 64}, rng);
    const Tensor wide = Tensor::randn({64, 80}, rng);
    const Tensor left = Tensor::randn({64, 16}, rng);
    const Tensor right = Tensor::randn({64, 48}, rng);
    const Tensor emb = Tensor::randn({100, 64}, rng);
    std::vector<Tensor> steps;
    for (int i = 0; i < 4; ++i) steps.push_back(Tensor::randn({16, 64}, rng));
    std::vector<std::int64_t> ids(64);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<std::int64_t>(i * 37 % 100);
    std::vector<std::int64_t> pick(64);
    for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = static_cast<std::int64_t>(i % 5);
    core::Rng drop_rng(106);

    const std::vector<std::function<Tensor()>> ops = {
        [&] { return add(x, y); },
        [&] { return sub(x, y); },
        [&] { return mul(x, y); },
        [&] { return add_scalar(x, 0.5f); },
        [&] { return mul_scalar(x, 0.5f); },
        [&] { return neg(x); },
        [&] { return add_bias(x, bias); },
        [&] { return relu(x); },
        [&] { return tanh_op(x); },
        [&] { return sigmoid(x); },
        [&] { return gelu(x); },
        [&] { return dropout(x, 0.25f, drop_rng); },
        [&] { return matmul(x, y); },
        [&] { return linear(x, y, bias); },
        [&] { return linear(x, y, Tensor()); },
        [&] { return bmm(b3, c3); },
        [&] { return bmm_nt(b3, b3); },
        [&] { return reshape(x, {16, 256}); },
        [&] { return permute(x4, {0, 2, 1, 3}); },
        [&] { return permute(x4, {3, 2, 1, 0}); },
        [&] { return select_dim1(x3, 2); },
        [&] { return slice_cols(wide, 8, 64); },
        [&] { return concat_cols({left, right}); },
        [&] { return stack_dim1(steps); },
        [&] { return gather_dim1(x3, pick); },
        [&] { return softmax_lastdim(x); },
        [&] { return layer_norm(x, bias, bias); },
        [&] { return embedding(emb, ids); },
    };
    std::vector<std::vector<float>> outputs;
    std::vector<Tensor> alive;
    for (const auto& op : ops) {
      poison_cache();
      Tensor out = op();
      EXPECT_EQ(out.numel(), kN);
      outputs.push_back(out.vec());
      if (!poison) alive.push_back(out);
    }
    if (poison) {
      // The poisoning reaches the allocator: an overwrite buffer is NaN.
      poison_cache();
      const std::vector<float> probe = storage::acquire_for_overwrite(kN);
      EXPECT_TRUE(std::isnan(probe[0]));
    }
    return outputs;
  };
  std::vector<std::vector<float>> fresh, poisoned;
  std::thread([&] { fresh = every_op(false); }).join();
  std::thread([&] { poisoned = every_op(true); }).join();
  ASSERT_EQ(fresh.size(), poisoned.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_same_bits(poisoned[i].data(), fresh[i].data(), fresh[i].size(),
                     "op #" + std::to_string(i));
  }
}

TEST(TensorAutogradPlumbing, NoGradGuardSuppressesGraph) {
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    Tensor y = mul_scalar(a, 2.0f);
    EXPECT_TRUE(y.impl()->parents.empty());
  }
  EXPECT_TRUE(grad_enabled());
  Tensor y = mul_scalar(a, 2.0f);
  EXPECT_EQ(y.impl()->parents.size(), 1u);
}

TEST(TensorAutogradPlumbing, BackwardRequiresScalar) {
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  Tensor y = mul_scalar(a, 2.0f);
  EXPECT_THROW(y.backward(), ShapeError);
}

TEST(TensorAutogradPlumbing, DetachCopyDropsHistory) {
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  Tensor y = detach_copy(mul_scalar(a, 2.0f));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.impl()->parents.empty());
  expect_tensor_eq(y, {2, 4});
}

TEST(TensorAutogradPlumbing, GradAccessBeforeBackwardThrows) {
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  EXPECT_THROW(a.grad(), Error);
  Tensor loss = sum_all(mul_scalar(a, 3.0f));
  loss.backward();
  expect_tensor_eq(Tensor::from_data({2}, a.grad()), {3, 3});
}

TEST(TensorAutogradPlumbing, ZeroGradClears) {
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  Tensor loss = sum_all(a);
  loss.backward();
  a.zero_grad();
  EXPECT_EQ(a.grad()[0], 0.0f);
  EXPECT_EQ(a.grad()[1], 0.0f);
}

TEST(TensorAutogradPlumbing, InteriorGradsAreReleasedAfterBackward) {
  // loss = sum((x w^T + b) * 2), so dloss/dw = 2 * column sums of x, dloss/db = 2 per row.
  Tensor x = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  Tensor w = Tensor::from_data({1, 3}, {0.5f, -1, 2}, true);
  Tensor b = Tensor::from_data({1}, {0.25f}, true);
  Tensor constant = Tensor::from_data({2, 1}, {2, 2});
  Tensor h = linear(x, w, b);
  Tensor scaled = mul(h, constant);
  Tensor loss = sum_all(scaled);
  loss.backward();
  EXPECT_TRUE(h.impl()->grad.empty());
  EXPECT_TRUE(scaled.impl()->grad.empty());
  EXPECT_TRUE(loss.impl()->grad.empty());
  EXPECT_TRUE(constant.impl()->grad.empty());
  expect_tensor_eq(Tensor::from_data({3}, w.grad()), {10, 14, 18});
  expect_tensor_eq(Tensor::from_data({1}, b.grad()), {4});
  expect_tensor_eq(Tensor::from_data({6}, x.grad()), {1, -2, 4, 1, -2, 4});
}

TEST(TensorStorage, ReleasedBuffersAreReusedZeroed) {
  const std::size_t n = 4 * tensor::storage::kStorageMinFloats;
  std::vector<float> first = tensor::storage::acquire(n);
  first[7] = 3.0f;
  const float* address = first.data();
  const std::size_t cached = tensor::storage::cached_bytes();
  tensor::storage::release(first);
  EXPECT_TRUE(first.empty());
  EXPECT_EQ(tensor::storage::cached_bytes(), cached + n * sizeof(float));
  std::vector<float> second = tensor::storage::acquire(n);
  EXPECT_EQ(second.data(), address);
  EXPECT_EQ(second.size(), n);
  for (const float v : second) ASSERT_EQ(v, 0.0f);
  EXPECT_EQ(tensor::storage::cached_bytes(), cached);
  tensor::storage::release(second);
}

TEST(TensorStorage, SmallBuffersBypassTheCache) {
  const std::size_t cached = tensor::storage::cached_bytes();
  std::vector<float> small = tensor::storage::acquire(16);
  tensor::storage::release(small);
  EXPECT_EQ(tensor::storage::cached_bytes(), cached);
}

TEST(TensorStorage, CacheStaysWithinItsBoundAndKeepsTheNewest) {
  // Reserved, never touched: the cache goes by capacity, so twice its bound
  // in 9 MiB buffers costs address space, not memory.
  const std::size_t n = std::size_t{9} << 18;
  const float* newest = nullptr;
  for (std::size_t i = 0; i * n * sizeof(float) < 2 * tensor::storage::kStorageCacheBytes; ++i) {
    std::vector<float> buffer;
    buffer.reserve(n);
    newest = buffer.data();
    tensor::storage::release(buffer);
  }
  EXPECT_LE(tensor::storage::cached_bytes(), tensor::storage::kStorageCacheBytes);
  EXPECT_GE(tensor::storage::cached_bytes(),
            tensor::storage::kStorageCacheBytes - n * sizeof(float));
  std::vector<float> again = tensor::storage::acquire(n);
  EXPECT_EQ(again.data(), newest);
}

TEST(TensorAutogradPlumbing, GradsAccumulateAcrossUses) {
  // y = a + a -> dy/da = 2 per element.
  Tensor a = Tensor::from_data({2}, {1, 2}, true);
  Tensor loss = sum_all(add(a, a));
  loss.backward();
  expect_tensor_eq(Tensor::from_data({2}, a.grad()), {2, 2});
}

}  // namespace
}  // namespace cppflare::tensor
