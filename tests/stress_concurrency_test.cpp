// Concurrency stress suite.
//
// These tests exist to be run under ThreadSanitizer (the `tsan` preset):
// they hammer the threaded hot paths — ThreadPool submit/shutdown, the
// SimulatorRunner's pooled site clients, and TcpServer's
// accept/serve/stop lifecycle — with enough contention that unsynchronized
// state or fd-lifetime races become visible. Iteration counts are sized so
// the whole suite stays in the tens of seconds even with TSan's ~10x
// slowdown on a single core; raise them locally when chasing a flaky race.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "core/thread_pool.h"
#include "flare/simulator.h"
#include "flare/tcp.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace cppflare {
namespace {

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

using ThreadPoolStress = StressTest;

TEST_F(ThreadPoolStress, ConstructDestroyTightLoop) {
  // Regression for shutdown ordering: the destructor must publish the stop
  // flag under the queue mutex before notifying, or a worker that checked
  // the predicate just before can sleep forever and the join hangs.
  for (int i = 0; i < 200; ++i) {
    core::ThreadPool pool(2);
  }
  SUCCEED();
}

TEST_F(ThreadPoolStress, ConstructSubmitDestroyLoopDiscardsCleanly) {
  // Destroy with work still queued: pending tasks are discarded, running
  // ones joined. No leak (ASan) and no race on the queue (TSan).
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    core::ThreadPool pool(2);
    for (int j = 0; j < 16; ++j) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  // Some tasks ran, none crashed; the exact count is scheduling-dependent.
  EXPECT_GE(ran.load(), 0);
}

TEST_F(ThreadPoolStress, ConcurrentSubmittersAllTasksComplete) {
  core::ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 50;
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kTasksEach; ++i) {
        futures[t].push_back(
            pool.submit([&counter] { counter.fetch_add(1); }));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) f.get();
  }
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST_F(ThreadPoolStress, ZeroThreadPoolClampsToOneAndRuns) {
  core::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

// ---------------------------------------------------------------------------
// SimulatorRunner
// ---------------------------------------------------------------------------

using SimulatorStress = StressTest;

nn::StateDict tiny_model() {
  nn::StateDict d;
  d.insert("w", {{4}, {0.0f, 0.0f, 0.0f, 0.0f}});
  return d;
}

/// Minimal learner: nudges every weight toward a per-site target, like the
/// simulator_test fixture but with a deliberately tiny payload so rounds
/// turn over fast and the scheduler interleaves sites aggressively.
class NudgeLearner : public flare::Learner {
 public:
  NudgeLearner(std::string site, float target)
      : site_(std::move(site)), target_(target) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext&) override {
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    flare::Dxo update(flare::DxoKind::kWeights, updated);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    update.set_meta_double(flare::Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(flare::Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
};

flare::SimulatorRunner make_runner(flare::SimulatorConfig config) {
  return flare::SimulatorRunner(
      config, tiny_model(), std::make_unique<flare::FedAvgAggregator>(true),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i));
      });
}

TEST_F(SimulatorStress, EightSitesMultiRoundInProc) {
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 5;
  flare::SimulatorRunner runner = make_runner(config);
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 5u);
  for (const flare::RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 8);
  }
}

TEST_F(SimulatorStress, EightSitesMultiRoundOverTcp) {
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 3;
  config.use_tcp = true;
  flare::SimulatorRunner runner = make_runner(config);
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 3u);
  for (const flare::RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 8);
  }
}

TEST_F(SimulatorStress, SixtyFourSitesOverTcpReactor) {
  // The reactor transport under real fan-in: 64 client threads long-polling
  // one epoll loop, tasks pushed into parked polls at every round turnover.
  // TSan watches the reactor's completion sink, the server's park table, and
  // the worker pool handing frames between them.
  flare::SimulatorConfig config;
  config.num_clients = 64;
  config.num_rounds = 2;
  config.use_tcp = true;
  flare::SimulatorRunner runner = make_runner(config);
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 2u);
  for (const flare::RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 64);
  }
  EXPECT_TRUE(result.failed_sites.empty());
}

TEST_F(SimulatorStress, SingleSiteFederationCompletes) {
  flare::SimulatorConfig config;
  config.num_clients = 1;
  config.num_rounds = 4;
  flare::SimulatorRunner runner = make_runner(config);
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 4u);
  EXPECT_EQ(result.history.back().num_contributions, 1);
}

TEST_F(SimulatorStress, TracedEightSiteFederation) {
  // The tracing hot path under real contention: 8 site threads recording
  // client/server spans into the shared ring while per-site gauges land in
  // the server's MetricRegistry. TSan watches the ring mutex and the
  // relaxed-atomic metric stores; the assertions keep the trace honest.
  core::Tracer::instance().stop();
  core::Tracer::instance().clear();
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 3;
  config.trace = true;
  flare::SimulatorRunner runner = make_runner(config);
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_FALSE(core::Tracer::instance().enabled());  // run() stopped it
  if (core::kTracingCompiledIn) {
    EXPECT_GT(core::Tracer::instance().size(), 0u);
    EXPECT_EQ(result.site_metrics().size(), 8u * 5u);  // 5 gauges per site
  }
  core::Tracer::instance().clear();
}

TEST_F(SimulatorStress, BackToBackRunsReuseCleanState) {
  // Two consecutive federations (fresh runner each) must not interfere —
  // catches leaked global state and threads outliving run().
  for (int rep = 0; rep < 2; ++rep) {
    flare::SimulatorConfig config;
    config.num_clients = 4;
    config.num_rounds = 2;
    config.use_tcp = rep == 1;
    flare::SimulatorRunner runner = make_runner(config);
    EXPECT_EQ(runner.run().history.size(), 2u);
  }
}

TEST_F(SimulatorStress, EightSitesFaultyTcpFederation) {
  // Fault injection on every link: drops force the client retry/reconnect
  // machinery, delays skew round arrival order, and one hard disconnect
  // mid-run exercises the factory reconnect path — all while TSan watches
  // the server lock, the liveness map, and the abort condition variable.
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 3;
  config.use_tcp = true;
  flare::SimulatorRunner runner = make_runner(config);
  runner.set_fault_planner(
      [](std::int64_t index, const std::string&,
         std::int64_t incarnation) -> std::optional<flare::FaultPlan> {
        flare::FaultPlan plan;
        plan.seed = 0x57e55 + static_cast<std::uint64_t>(index) * 31 +
                    static_cast<std::uint64_t>(incarnation);
        plan.drop_prob = 0.1;
        plan.delay_prob = 0.1;
        plan.delay_ms = 2;
        if (index == 5 && incarnation == 0) plan.disconnect_on_call = 6;
        return plan;
      });
  const flare::SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_TRUE(result.failed_sites.empty());
  ASSERT_EQ(result.history.size(), 3u);
  for (const flare::RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 8);
  }
}

/// Learner that runs a real tensor forward+backward per round, so the
/// federation's site workers all dispatch kernel chunks onto the shared
/// compute pool at once — the exact cross-thread interaction TSan needs to
/// observe (site worker -> pool helper handoff, region completion, budget
/// reads).
class MatmulLearner : public flare::Learner {
 public:
  explicit MatmulLearner(std::string site) : site_(std::move(site)) {}

  flare::Dxo train(const flare::Dxo& global, const flare::FLContext&) override {
    core::Rng rng(std::hash<std::string>{}(site_));
    tensor::Tensor a =
        tensor::Tensor::randn({64, 64}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    tensor::Tensor b =
        tensor::Tensor::randn({64, 64}, rng, 0.0f, 1.0f, /*requires_grad=*/true);
    tensor::Tensor loss = tensor::mean_all(tensor::matmul(a, b));
    loss.backward();

    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.01f * loss.item();
    }
    flare::Dxo update(flare::DxoKind::kWeights, updated);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    update.set_meta_double(flare::Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(flare::Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
};

TEST_F(SimulatorStress, FederationWithComputeParallelismEnabled) {
  core::set_compute_threads(3);
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 3;
  flare::SimulatorRunner runner(
      config, tiny_model(), std::make_unique<flare::FedAvgAggregator>(true),
      [](std::int64_t, const std::string& name) {
        return std::make_shared<MatmulLearner>(name);
      });
  const flare::SimulationResult result = runner.run();
  ASSERT_EQ(result.history.size(), 3u);
  for (const flare::RoundMetrics& m : result.history) {
    EXPECT_EQ(m.num_contributions, 8);
  }
}

TEST_F(SimulatorStress, ConcurrentParallelForCallers) {
  // Many external threads each drive their own parallel regions against one
  // shared helper pool; every region must see exactly its own chunks.
  core::set_compute_threads(3);
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const std::int64_t n = 512 + 64 * t;
        std::vector<int> hits(n, 0);
        core::parallel_for(0, n, 32, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) hits[i] += 1;
        });
        for (std::int64_t i = 0; i < n; ++i) {
          if (hits[i] != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// TcpServer / TcpConnection
// ---------------------------------------------------------------------------

using TcpStress = StressTest;

flare::Dispatcher echo_dispatcher() {
  return [](const std::vector<std::uint8_t>& req) { return req; };
}

TEST_F(TcpStress, AcceptServeCloseLoop) {
  flare::TcpServer server(0, echo_dispatcher());
  for (int i = 0; i < 50; ++i) {
    flare::TcpConnection conn("127.0.0.1", server.port());
    const std::vector<std::uint8_t> msg = {static_cast<std::uint8_t>(i)};
    EXPECT_EQ(conn.call(msg), msg);
  }
}

TEST_F(TcpStress, ConcurrentConnectCallCloseChurn) {
  flare::TcpServer server(0, echo_dispatcher());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        try {
          flare::TcpConnection conn("127.0.0.1", server.port());
          const std::vector<std::uint8_t> msg = {
              static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(i)};
          if (conn.call(msg) != msg) failures.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TcpStress, AbruptDisconnectsDoNotKillServer) {
  flare::TcpServer server(0, echo_dispatcher());
  for (int i = 0; i < 20; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    switch (i % 3) {
      case 0:
        // Drop the connection without sending anything.
        break;
      case 1: {
        // Send half a length header, then vanish mid-frame.
        const std::uint8_t half[2] = {0x10, 0x00};
        (void)::send(fd, half, sizeof(half), MSG_NOSIGNAL);
        break;
      }
      case 2: {
        // Announce a payload but never deliver it.
        const std::uint8_t header[4] = {0x40, 0x00, 0x00, 0x00};
        (void)::send(fd, header, sizeof(header), MSG_NOSIGNAL);
        break;
      }
    }
    ::close(fd);
  }
  // The server must still serve well-behaved clients afterwards.
  flare::TcpConnection conn("127.0.0.1", server.port());
  EXPECT_EQ(conn.call({7}), (std::vector<std::uint8_t>{7}));
}

TEST_F(TcpStress, SilentClientsUnderLoadDoNotStarveHonestOnes) {
  // Several clients connect and go mute mid-frame while honest traffic
  // hammers the same server. With SO_RCVTIMEO armed, every silent
  // connection's handler thread is reclaimed on the deadline instead of
  // accumulating until the accept backlog starves.
  flare::TcpServerOptions options;
  options.io_timeout_ms = 100;
  flare::TcpServer server(0, echo_dispatcher(), options);
  std::vector<int> silent_fds;
  for (int i = 0; i < 6; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Half a length header, then silence — pins the handler in read_all
    // until the receive deadline fires.
    const std::uint8_t half[2] = {0x08, 0x00};
    (void)::send(fd, half, sizeof(half), MSG_NOSIGNAL);
    silent_fds.push_back(fd);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> honest;
  for (int t = 0; t < 4; ++t) {
    honest.emplace_back([&, t] {
      try {
        flare::TcpConnection conn("127.0.0.1", server.port());
        for (int i = 0; i < 25; ++i) {
          const std::vector<std::uint8_t> msg = {static_cast<std::uint8_t>(t),
                                                 static_cast<std::uint8_t>(i)};
          if (conn.call(msg) != msg) failures.fetch_add(1);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : honest) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Give the deadlines time to fire, then confirm the silent handlers were
  // torn down (server closed its end of every mute connection).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const int fd : silent_fds) {
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, MSG_DONTWAIT), 0);
    ::close(fd);
  }
}

TEST_F(TcpStress, PortIsReusableImmediatelyAfterStop) {
  std::uint16_t port;
  {
    flare::TcpServer first(0, echo_dispatcher());
    port = first.port();
    flare::TcpConnection conn("127.0.0.1", port);
    EXPECT_EQ(conn.call({1}), (std::vector<std::uint8_t>{1}));
    first.stop();
  }
  // SO_REUSEADDR lets a new server bind the very same port even while the
  // old connections sit in TIME_WAIT.
  flare::TcpServer second(port, echo_dispatcher());
  EXPECT_EQ(second.port(), port);
  flare::TcpConnection conn("127.0.0.1", port);
  EXPECT_EQ(conn.call({2}), (std::vector<std::uint8_t>{2}));
}

TEST_F(TcpStress, ConcurrentStopCallsAreSafe) {
  for (int rep = 0; rep < 10; ++rep) {
    flare::TcpServer server(0, echo_dispatcher());
    flare::TcpConnection conn("127.0.0.1", server.port());
    EXPECT_EQ(conn.call({1}), (std::vector<std::uint8_t>{1}));
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&server] { server.stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    // Destructor stops again: must be idempotent.
  }
  SUCCEED();
}

TEST_F(TcpStress, StopWhileClientsMidCallUnblocksThem) {
  // Dispatcher stalls long enough that stop() lands while handler threads
  // are inside recv/dispatch; clients must fail with TransportError, not
  // hang or crash.
  auto server = std::make_unique<flare::TcpServer>(
      0, [](const std::vector<std::uint8_t>& req) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return req;
      });
  std::atomic<int> completed{0};
  std::atomic<int> aborted{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      try {
        flare::TcpConnection conn("127.0.0.1", server->port());
        for (int i = 0; i < 100; ++i) {
          conn.call({static_cast<std::uint8_t>(i)});
          completed.fetch_add(1);
        }
      } catch (const TransportError&) {
        aborted.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server->stop();
  for (std::thread& t : clients) t.join();
  // Every client either finished all calls before the stop or was cleanly
  // unblocked by it.
  EXPECT_EQ(completed.load() / 100 + aborted.load(), 4);
}

TEST_F(TcpStress, ServerConstructDestroyChurn) {
  for (int i = 0; i < 30; ++i) {
    flare::TcpServer server(0, echo_dispatcher());
    if (i % 2 == 0) {
      flare::TcpConnection conn("127.0.0.1", server.port());
      EXPECT_EQ(conn.call({9}), (std::vector<std::uint8_t>{9}));
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace cppflare
