// Microbenchmarks for the federated framework: serialization, channel
// crypto, aggregation, and transport round trips (google-benchmark).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/aead.h"
#include "core/keyed_stream.h"
#include "core/keyed_stream_kernel.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/poly1305_kernel.h"
#include "core/sha256.h"
#include "core/sha256_kernel.h"
#include "flare/aggregator.h"
#include "flare/filters.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/tcp.h"
#include "flare/validator.h"

namespace {

using namespace cppflare;

// The paper's BERT state dict (2,472,082 floats): the payload every site
// filters and seals and the server opens each round.
constexpr std::int64_t kBertFloats = 2472082;
constexpr std::int64_t kBertPayloadBytes = kBertFloats * 4;

const bool kHostContext = [] {
  benchmark::AddCustomContext("host", bench::host_context_json());
  return true;
}();

void label_kernel(benchmark::State& state) {
  state.SetLabel(std::string("sha256=") +
                 core::sha256_kernel_name(core::sha256_active_kernel()));
}

/// The envelope's kernels: ChaCha20 (prg) and Poly1305.
void label_envelope(benchmark::State& state) {
  state.SetLabel(
      std::string("prg=") + core::keyed_stream_kernel_name(core::keyed_stream_active_kernel()) +
      " poly1305=" + core::poly1305_kernel_name(core::poly1305_active_kernel()));
}

nn::StateDict model_of_size(std::int64_t n) {
  nn::StateDict d;
  nn::ParamBlob blob;
  blob.shape = {n};
  blob.values.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    blob.values[static_cast<std::size_t>(i)] = static_cast<float>(i % 97) * 0.01f;
  }
  d.insert("w", std::move(blob));
  return d;
}

void BM_StateDictSerialize(benchmark::State& state) {
  const nn::StateDict d = model_of_size(state.range(0));
  for (auto _ : state) {
    core::ByteWriter w;
    d.serialize(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_StateDictSerialize)->Arg(100000)->Arg(1300000);

void BM_StateDictDeserialize(benchmark::State& state) {
  const nn::StateDict d = model_of_size(state.range(0));
  core::ByteWriter w;
  d.serialize(w);
  for (auto _ : state) {
    core::ByteReader r(w.bytes());
    nn::StateDict back = nn::StateDict::deserialize(r);
    benchmark::DoNotOptimize(back.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_StateDictDeserialize)->Arg(100000)->Arg(1300000);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    const core::Digest digest = core::Sha256::hash(data.data(), data.size());
    benchmark::DoNotOptimize(digest[0]);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  label_kernel(state);
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(1 << 20)->Arg(kBertPayloadBytes);

// The key is derived once, as a credential's holder does.
void BM_SealOpen(benchmark::State& state) {
  const flare::ChannelKey key(std::vector<std::uint8_t>(32, 0x7));
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x3c);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const auto sealed = flare::seal("site-1", key, ++seq, payload);
    const flare::Envelope env = flare::open(sealed, key);
    benchmark::DoNotOptimize(env.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  label_envelope(state);
}
BENCHMARK(BM_SealOpen)->Arg(1024)->Arg(5 << 20)->Arg(kBertPayloadBytes);

// One server-to-site task frame end to end: pack the round's kTrain
// TaskMessage, seal it for one site, open it there and decode the model.
// The argument is the model's float bytes.
void BM_TaskFrame(benchmark::State& state) {
  const flare::ChannelKey key(std::vector<std::uint8_t>(32, 0x7));
  flare::TaskMessage task{flare::TaskKind::kTrain, 3, 10,
                          flare::Dxo(flare::DxoKind::kWeights,
                                     model_of_size(state.range(0) / 4))};
  task.payload.set_meta_int(flare::Dxo::kMetaRound, 3);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> body = flare::pack(task);
    const auto sealed = flare::seal("server", key, ++seq, body, "job");
    const flare::Envelope env = flare::open(sealed, key);
    const flare::TaskMessage back = flare::decode_task(env.payload);
    benchmark::DoNotOptimize(back.payload.data().at("w").values.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  label_envelope(state);
}
BENCHMARK(BM_TaskFrame)->Arg(kBertPayloadBytes);

// Poly1305 over one BERT frame's payload, per kernel (the argument indexes
// kAllPoly1305Kernels; unsupported kernels are skipped).
void BM_Poly1305(benchmark::State& state) {
  const core::Poly1305Kernel kernel =
      core::kAllPoly1305Kernels[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(std::string("poly1305=") + core::poly1305_kernel_name(kernel));
  if (!core::poly1305_kernel_supported(kernel)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(kBertPayloadBytes), 0xa5);
  core::Poly1305::Key key;
  key.fill(0x3c);
  for (auto _ : state) {
    core::Poly1305 poly = core::poly1305_with_kernel(kernel, key);
    poly.update(data.data(), data.size());
    const core::Poly1305::Tag tag = poly.finish();
    benchmark::DoNotOptimize(tag[0]);
  }
  state.SetBytesProcessed(state.iterations() * kBertPayloadBytes);
}
BENCHMARK(BM_Poly1305)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

// The envelope's AEAD alone: encrypt and tag one BERT payload in place.
void BM_Aead(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(kBertPayloadBytes), 0xa5);
  const std::vector<std::uint8_t> aad(40, 0x11);
  core::Digest key;
  key.fill(0x7);
  const core::AeadNonce nonce{};
  for (auto _ : state) {
    const core::AeadTag tag = core::aead_seal(key, nonce, aad, data);
    benchmark::DoNotOptimize(tag[0]);
  }
  state.SetBytesProcessed(state.iterations() * kBertPayloadBytes);
  label_envelope(state);
}
BENCHMARK(BM_Aead)->Unit(benchmark::kMillisecond);

// ChaCha20 keystream words for one BERT upload, per kernel (the argument
// indexes kAllKeyedStreamKernels; unsupported kernels are skipped).
void BM_KeyedStream(benchmark::State& state) {
  const core::KeyedStreamKernel kernel =
      core::kAllKeyedStreamKernels[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(std::string("prg=") + core::keyed_stream_kernel_name(kernel));
  if (!core::keyed_stream_kernel_supported(kernel)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const core::KeyedStream stream =
      core::keyed_stream_with_kernel(kernel, core::Digest{}, core::KeyedStream::Nonce{});
  std::vector<std::uint32_t> words(static_cast<std::size_t>(kBertFloats));
  for (auto _ : state) {
    stream.read(0, words.size(), words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kBertFloats * 4);
}
BENCHMARK(BM_KeyedStream)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// One site's outbound privacy filters on a BERT update at a compute budget
// of range(0) threads: DP clip + noise, then quantize + 7 pairwise masks
// (8 sites). Labelled with the PRG kernel the filters run on.
void privacy_filter_bench(benchmark::State& state, flare::Filter& filter) {
  core::set_compute_threads(static_cast<std::size_t>(state.range(0)));
  const nn::StateDict update = model_of_size(kBertFloats);
  flare::FLContext ctx;
  ctx.current_round = 1;
  for (auto _ : state) {
    state.PauseTiming();
    flare::Dxo dxo(flare::DxoKind::kWeightDiff, update);
    state.ResumeTiming();
    filter.process(dxo, ctx);
    benchmark::DoNotOptimize(dxo.data().at("w").values.data());
  }
  state.SetItemsProcessed(state.iterations() * kBertFloats);
  state.SetLabel(std::string("prg=") +
                 core::keyed_stream_kernel_name(core::keyed_stream_active_kernel()));
}

void BM_DpFilter(benchmark::State& state) {
  flare::DpGaussianFilter filter(1.0, 1.0, 4);
  privacy_filter_bench(state, filter);
}
BENCHMARK(BM_DpFilter)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MaskFilter(benchmark::State& state) {
  std::vector<std::string> sites;
  for (int i = 1; i <= 8; ++i) sites.push_back("site-" + std::to_string(i));
  const auto filter = flare::make_secure_agg_mask_filter("bench", 3, "site-4", sites);
  privacy_filter_bench(state, *filter);
}
BENCHMARK(BM_MaskFilter)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FedAvgRound(benchmark::State& state) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  const std::int64_t params = state.range(0);
  const nn::StateDict global = model_of_size(params);
  std::vector<flare::Dxo> contributions;
  for (int i = 0; i < 8; ++i) {
    flare::Dxo dxo(flare::DxoKind::kWeights, model_of_size(params));
    dxo.set_meta_int(flare::Dxo::kMetaNumSamples, 100 + i);
    contributions.push_back(std::move(dxo));
  }
  flare::FedAvgAggregator agg(true);
  for (auto _ : state) {
    agg.reset(global, 0);
    for (int i = 0; i < 8; ++i) {
      agg.accept("site-" + std::to_string(i + 1), contributions[i]);
    }
    nn::StateDict out = agg.aggregate();
    benchmark::DoNotOptimize(out.at("w").values.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * params);
}
BENCHMARK(BM_FedAvgRound)
    ->Arg(100000)
    ->Arg(1300000)
    ->Arg(kBertFloats)
    ->Unit(benchmark::kMillisecond);

// The server's screen of one BERT update against the global model: schema,
// finite scan and deviation norm (one fused pass), as the validator runs it
// on every upload.
void BM_ValidatorScreen(benchmark::State& state) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  const nn::StateDict global = model_of_size(kBertFloats);
  nn::StateDict update = model_of_size(kBertFloats);
  for (float& v : update.at("w").values) v += 0.001f;
  const flare::Dxo dxo(flare::DxoKind::kWeights, std::move(update));
  flare::UpdateValidator validator;
  validator.reset(global, 0);
  for (auto _ : state) {
    double norm = 0.0;
    const flare::Verdict verdict = validator.score("site-1", dxo, &norm);
    benchmark::DoNotOptimize(verdict.reason);
    benchmark::DoNotOptimize(norm);
  }
  state.SetBytesProcessed(state.iterations() * kBertPayloadBytes);
}
BENCHMARK(BM_ValidatorScreen)->Unit(benchmark::kMillisecond);

void BM_Provisioning(benchmark::State& state) {
  for (auto _ : state) {
    const flare::Provisioner p("bench_project", 42);
    const auto registry = p.provision_sites(8);
    benchmark::DoNotOptimize(registry.size());
  }
}
BENCHMARK(BM_Provisioning);

void BM_TcpRoundTrip(benchmark::State& state) {
  flare::TcpServer server(0, [](const std::vector<std::uint8_t>& r) { return r; });
  flare::TcpConnection conn("127.0.0.1", server.port());
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    const auto response = conn.call(payload);
    benchmark::DoNotOptimize(response.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_TcpRoundTrip)->Arg(1024)->Arg(1 << 20);

}  // namespace
