// Microbenchmarks for the federated framework: serialization, channel
// crypto, aggregation, and transport round trips (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/logging.h"
#include "core/sha256.h"
#include "core/sha256_kernel.h"
#include "flare/aggregator.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/tcp.h"

namespace {

using namespace cppflare;

// Float bytes of the paper's BERT state dict (2,472,082 floats): the
// payload every site seals and the server opens each round.
constexpr std::int64_t kBertPayloadBytes = 2472082 * 4;

void label_kernel(benchmark::State& state) {
  state.SetLabel(std::string("sha256=") +
                 core::sha256_kernel_name(core::sha256_active_kernel()));
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

void BM_SealOpen(benchmark::State& state) {
  const std::vector<std::uint8_t> key(32, 0x7);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0x3c);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const auto sealed = flare::seal("site-1", key, ++seq, payload);
    const flare::Envelope env = flare::open(sealed, key);
    benchmark::DoNotOptimize(env.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  label_kernel(state);
}
BENCHMARK(BM_SealOpen)->Arg(1024)->Arg(5 << 20)->Arg(kBertPayloadBytes);

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
BENCHMARK(BM_FedAvgRound)->Arg(100000)->Arg(1300000);

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
