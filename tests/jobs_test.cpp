// Multi-job coordinator tests (DESIGN.md §16): one JobRunner hosting N
// federated jobs over a shared site pool.
//
// Covers the admin line protocol (roundtrip over the sealed transport plus
// malformed-command rejection), registry-enforced job-id uniqueness, typed
// cross-job frame rejection, abort-while-running, the compute-budget
// scheduler, and the determinism acceptance bar: concurrent jobs produce
// per-job final models byte-identical to equivalent solo runs, on both the
// in-process and TCP transports. A fork/SIGKILL harness (crash_recovery_test
// style) proves every in-flight job independently survives a coordinator
// kill/restart via its own checkpoint + journal.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bytes.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "flare/client.h"
#include "flare/jobs.h"
#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/observability.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "flare/tcp.h"

namespace cppflare::flare {
namespace jobs_harness {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

nn::StateDict tiny_model() { return dict_of({0.0f, 0.0f, 0.0f}); }

std::vector<std::uint8_t> model_bytes(const nn::StateDict& model) {
  core::ByteWriter w;
  model.serialize(w);
  return w.bytes();
}

/// Learner returning fixed weights; the value encodes (job, site) so each
/// job's aggregate is distinct and comparable against its solo twin.
class ConstantLearner : public Learner {
 public:
  ConstantLearner(std::string site, float value)
      : site_(std::move(site)), value_(value) {}

  Dxo train(const Dxo& global, const FLContext&) override {
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v = value_;
    }
    Dxo update(DxoKind::kWeights, updated);
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float value_;
};

/// Shared participant pool: site-1..N + "server" + the "admin" identity.
std::map<std::string, Credential> make_pool(std::int64_t num_sites) {
  const Provisioner provisioner("multi-job-pool", 21);
  std::map<std::string, Credential> pool =
      provisioner.provision_sites(num_sites);
  pool.insert({"admin", provisioner.provision("admin")});
  return pool;
}

JobSpec make_spec(const std::string& job_id, std::int64_t rounds,
                  std::int64_t clients) {
  JobSpec spec;
  spec.server.job_id = job_id;
  spec.server.num_rounds = rounds;
  spec.server.expected_clients = clients;
  spec.server.min_clients = clients;
  spec.initial_model = tiny_model();
  spec.aggregator = std::make_unique<FedAvgAggregator>(false);
  return spec;
}

/// Deterministic per-(job, site) constant so every job has a distinct but
/// reproducible fixed point.
float site_value(std::int64_t job_index, std::int64_t site_index) {
  return 0.25f * static_cast<float>(site_index + 1) +
         3.0f * static_cast<float>(job_index);
}

/// Drives `num_sites` clients of one job to completion. `connect` builds a
/// fresh Connection per client (in-proc or TCP).
void drive_job(const std::map<std::string, Credential>& pool,
               const std::string& job_id, std::int64_t job_index,
               std::int64_t num_sites,
               const std::function<std::unique_ptr<Connection>()>& connect) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_sites));
  for (std::int64_t i = 0; i < num_sites; ++i) {
    const std::string name = "site-" + std::to_string(i + 1);
    threads.emplace_back([&pool, job_id, job_index, i, name, &connect] {
      ClientConfig config;
      config.job_id = job_id;
      config.max_idle_ms = 30000;
      FederatedClient client(
          config, pool.at(name), connect(),
          std::make_shared<ConstantLearner>(name, site_value(job_index, i)));
      client.run();
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Fork/SIGKILL child: two journaling jobs in one coordinator process
// ---------------------------------------------------------------------------

/// Runs job-a and job-b concurrently (each with its own checkpoint +
/// journal under `dir`), writes each job's final model to dir/final_<job>.
/// Restart-oblivious: the same code path runs fresh and resumed.
int run_two_jobs(const std::string& dir) {
  const std::int64_t kSites = 3;
  // Both jobs must hold a slot at once: on a 1-core machine the second
  // would queue, and its clients' retry budgets can expire before the
  // first finishes (we run in a forked child, so the override is private).
  core::set_compute_threads(2);
  const std::map<std::string, Credential> pool = make_pool(kSites);
  JobRunner runner(pool);
  const std::vector<std::string> job_ids = {"job-a", "job-b"};
  for (std::size_t j = 0; j < job_ids.size(); ++j) {
    JobSpec spec = make_spec(job_ids[j], 3, kSites);
    spec.persist_path = dir + "/" + job_ids[j] + ".bin";
    spec.resume = true;
    spec.journal = true;
    spec.journal_sync = core::WalSyncPolicy::kEveryRecord;
    runner.submit(std::move(spec));
  }
  std::vector<std::thread> drivers;
  for (std::size_t j = 0; j < job_ids.size(); ++j) {
    drivers.emplace_back([&, j] {
      drive_job(pool, job_ids[j], static_cast<std::int64_t>(j), kSites,
                [&runner] {
                  return std::make_unique<InProcConnection>(
                      runner.async_router());
                });
    });
  }
  for (std::thread& t : drivers) t.join();
  if (!runner.wait_all(30000)) return 3;
  for (const std::string& job_id : job_ids) {
    const FederatedServer& server = runner.server(job_id);
    if (!server.finished()) return 3;
    const std::vector<std::uint8_t> bytes =
        model_bytes(runner.server(job_id).global_model());
    std::ofstream out(dir + "/final_" + job_id,
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  return 0;
}

int child_main(int argc, char** argv) {
  if (argc < 3) return 4;
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  try {
    return run_two_jobs(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobs child threw: %s\n", e.what());
    return 4;
  }
}

}  // namespace jobs_harness

namespace {

using jobs_harness::ConstantLearner;
using jobs_harness::drive_job;
using jobs_harness::make_pool;
using jobs_harness::make_spec;
using jobs_harness::model_bytes;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

class JobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    root_ = std::filesystem::temp_directory_path() /
            ("cppflare_jobs_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override {
    std::filesystem::remove_all(root_);
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  /// Solo reference: a fresh runner hosting only `job_id`, driven to
  /// completion over the in-process transport.
  std::vector<std::uint8_t> solo_final(
      const std::map<std::string, Credential>& pool, const std::string& job_id,
      std::int64_t job_index, std::int64_t rounds, std::int64_t sites) {
    JobRunner runner(pool);
    runner.submit(make_spec(job_id, rounds, sites));
    drive_job(pool, job_id, job_index, sites, [&runner] {
      return std::make_unique<InProcConnection>(runner.async_router());
    });
    EXPECT_TRUE(runner.wait_all(30000));
    return model_bytes(runner.server(job_id).global_model());
  }

  std::filesystem::path root_;
};

// ---------------------------------------------------------------------------
// Registry: uniqueness, validation, views
// ---------------------------------------------------------------------------

TEST_F(JobsTest, SubmitEnforcesJobIdUniqueness) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  EXPECT_EQ(runner.submit(make_spec("job-a", 1, 2)), "job-a");
  // Same id again: typed ConfigError, registry unchanged.
  EXPECT_THROW(runner.submit(make_spec("job-a", 1, 2)), ConfigError);
  // Terminal jobs keep their id reserved too.
  EXPECT_TRUE(runner.abort("job-a", "make it terminal"));
  EXPECT_THROW(runner.submit(make_spec("job-a", 1, 2)), ConfigError);
  EXPECT_EQ(runner.list().size(), 1u);
}

TEST_F(JobsTest, SubmitValidatesSpec) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  JobSpec no_id = make_spec("", 1, 2);
  EXPECT_THROW(runner.submit(std::move(no_id)), ConfigError);
  JobSpec no_agg = make_spec("job-a", 1, 2);
  no_agg.aggregator = nullptr;
  EXPECT_THROW(runner.submit(std::move(no_agg)), ConfigError);
  JobSpec bad_journal = make_spec("job-a", 1, 2);
  bad_journal.journal = true;  // no journal_path and no persist_path
  EXPECT_THROW(runner.submit(std::move(bad_journal)), ConfigError);
  EXPECT_TRUE(runner.list().empty());
}

TEST_F(JobsTest, StatusAndServerAccessorsAreTyped) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  EXPECT_THROW(runner.status("nope"), ConfigError);
  EXPECT_THROW(runner.server("nope"), ConfigError);
  const JobStatus s = runner.status("job-a");
  EXPECT_EQ(s.job_id, "job-a");
  EXPECT_EQ(s.state, JobState::kRunning);
  EXPECT_EQ(s.num_rounds, 1);
  EXPECT_EQ(s.registered_clients, 0);
}

// ---------------------------------------------------------------------------
// Scheduler: compute-budget admission
// ---------------------------------------------------------------------------

TEST_F(JobsTest, JobsQueueWhenComputeBudgetIsExhausted) {
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(1);
  const auto pool = make_pool(2);
  {
    JobRunner runner(pool);
    runner.submit(make_spec("job-a", 1, 2));
    runner.submit(make_spec("job-b", 1, 2));
    EXPECT_EQ(runner.status("job-a").state, JobState::kRunning);
    EXPECT_EQ(runner.status("job-b").state, JobState::kQueued);
    // A queued job has no server yet — the accessor says so, typed.
    EXPECT_THROW(runner.server("job-b"), ConfigError);

    // Finishing job-a frees its slot and admits job-b.
    drive_job(pool, "job-a", 0, 2, [&runner] {
      return std::make_unique<InProcConnection>(runner.async_router());
    });
    EXPECT_TRUE(runner.wait_until_running("job-b", 10000));
    EXPECT_EQ(runner.status("job-a").state, JobState::kFinished);

    // Cancelling the now-running job-b lets the runner tear down cleanly.
    EXPECT_TRUE(runner.abort("job-b", "test teardown"));
  }
  core::set_compute_threads(old_budget);
}

TEST_F(JobsTest, QueuedJobCanBeCancelledBeforeItEverRuns) {
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(1);
  const auto pool = make_pool(2);
  {
    JobRunner runner(pool);
    runner.submit(make_spec("job-a", 1, 2));
    // Demands more slots than the machine has: clamped, so it queues behind
    // job-a instead of wedging the queue forever.
    JobSpec greedy = make_spec("job-b", 1, 2);
    greedy.compute_slots = 99;
    runner.submit(std::move(greedy));
    EXPECT_EQ(runner.status("job-b").state, JobState::kQueued);
    EXPECT_TRUE(runner.abort("job-b", "operator cancelled"));
    const JobStatus s = runner.status("job-b");
    EXPECT_EQ(s.state, JobState::kAborted);
    EXPECT_EQ(s.abort_code, AbortCode::kExternal);
    EXPECT_EQ(s.abort_reason, "operator cancelled");
    // Cancelled-while-queued means no server ever existed.
    EXPECT_THROW(runner.server("job-b"), ConfigError);
    // Second abort is a no-op.
    EXPECT_FALSE(runner.abort("job-b", "again"));
    EXPECT_TRUE(runner.abort("job-a", "test teardown"));
  }
  core::set_compute_threads(old_budget);
}

// ---------------------------------------------------------------------------
// Admin line protocol
// ---------------------------------------------------------------------------

TEST_F(JobsTest, AdminProtocolRoundTripOverSealedTransport) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  runner.submit(make_spec("job-b", 5, 2));
  AdminClient admin(
      std::make_unique<InProcConnection>(runner.async_router()),
      pool.at("admin"));

  const std::string listing = admin.call("list");
  EXPECT_EQ(listing.rfind("ok jobs=2", 0), 0u) << listing;
  EXPECT_NE(listing.find("job-a"), std::string::npos);
  EXPECT_NE(listing.find("job-b"), std::string::npos);

  EXPECT_NE(admin.call("status job-a").find("state=running"),
            std::string::npos);

  EXPECT_EQ(admin.call("abort job-b operator says stop"), "ok aborting job-b");
  const std::string aborted = admin.call("status job-b");
  EXPECT_NE(aborted.find("state=aborted"), std::string::npos) << aborted;
  EXPECT_NE(aborted.find("operator says stop"), std::string::npos) << aborted;

  // Drive job-a to completion, then read its metrics through the console.
  drive_job(pool, "job-a", 0, 2, [&runner] {
    return std::make_unique<InProcConnection>(runner.async_router());
  });
  ASSERT_TRUE(runner.wait_all(30000));
  const std::string metrics = admin.call("metrics job-a");
  EXPECT_EQ(metrics.rfind("ok job-a", 0), 0u) << metrics;
  EXPECT_NE(metrics.find(std::string("counter ") +
                         metric_names::kServerRoundsCompleted + " 1"),
            std::string::npos)
      << metrics;
}

TEST_F(JobsTest, AdminSubmitInstantiatesRegisteredBlueprint) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.register_blueprint("tiny", [](const std::string& job_id) {
    JobSpec spec = make_spec(job_id, 1, 2);
    return spec;
  });
  EXPECT_EQ(runner.admin_execute("submit tiny job-new"), "ok submitted job-new");
  EXPECT_EQ(runner.status("job-new").state, JobState::kRunning);
  // Unknown blueprint and duplicate id are typed errors, reported as text.
  EXPECT_EQ(runner.admin_execute("submit nope job-x").rfind("err ", 0), 0u);
  EXPECT_EQ(runner.admin_execute("submit tiny job-new").rfind("err ", 0), 0u);
  EXPECT_TRUE(runner.abort("job-new", "test teardown"));
}

TEST_F(JobsTest, MalformedAdminCommandsAreRejectedNotExecuted) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  AdminClient admin(
      std::make_unique<InProcConnection>(runner.async_router()),
      pool.at("admin"));
  EXPECT_EQ(admin.call("bogus").rfind("err unknown command 'bogus'", 0), 0u);
  EXPECT_EQ(admin.call("status"), "err usage: status <job>");
  EXPECT_EQ(admin.call("metrics"), "err usage: metrics <job>");
  EXPECT_EQ(admin.call("abort"), "err usage: abort <job> [reason]");
  EXPECT_EQ(admin.call("status nope").rfind("err ", 0), 0u);
  EXPECT_EQ(admin.call("").rfind("err empty command", 0), 0u);
  // Nothing above changed the registry.
  EXPECT_EQ(runner.status("job-a").state, JobState::kRunning);
  EXPECT_TRUE(runner.abort("job-a", "test teardown"));
}

TEST_F(JobsTest, AdminFramesRequireTheProvisionedIdentity) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  // Wrong key: the server's rejection is sealed under the real admin key,
  // so the impostor cannot even read it.
  Credential impostor = pool.at("admin");
  impostor.secret[0] ^= 0xff;
  AdminClient bad_key(
      std::make_unique<InProcConnection>(runner.async_router()),
      impostor);
  EXPECT_THROW(bad_key.call("list"), Error);

  // A pool provisioned without an "admin" identity rejects the console
  // entirely.
  auto no_admin = pool;
  no_admin.erase("admin");
  JobRunner closed(no_admin);
  closed.submit(make_spec("job-a", 1, 2));
  AdminClient locked_out(
      std::make_unique<InProcConnection>(closed.async_router()),
      pool.at("admin"));
  EXPECT_THROW(locked_out.call("list"), Error);
  EXPECT_TRUE(runner.abort("job-a", "test teardown"));
  EXPECT_TRUE(closed.abort("job-a", "test teardown"));
}

// ---------------------------------------------------------------------------
// Cross-job routing
// ---------------------------------------------------------------------------

TEST_F(JobsTest, CrossJobFramesAreRejectedWithTypedError) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  runner.submit(make_spec("job-b", 1, 2));

  // Bound to a job this coordinator does not host: fatal kWrongJob, the
  // client reports it as cross-job traffic instead of retrying forever.
  ClientConfig wrong;
  wrong.job_id = "job-nope";
  FederatedClient misrouted(
      wrong, pool.at("site-1"),
      std::make_unique<InProcConnection>(runner.async_router()),
      std::make_shared<ConstantLearner>("site-1", 1.0f));
  EXPECT_THROW(misrouted.run(), ProtocolError);

  EXPECT_TRUE(runner.abort("job-a", "test teardown"));
  EXPECT_TRUE(runner.abort("job-b", "test teardown"));
}

TEST_F(JobsTest, UnboundFramesAreWrongJobEvenForASingleHostedJob) {
  // Every site frame carries its job binding. An unbound frame gets the
  // verified kWrongJob even when only one job is hosted, and a client
  // without a job id cannot be built at all.
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("solo", 1, 2));
  const Credential& site = pool.at("site-1");
  InProcConnection connection(runner.async_router());
  const auto reply = connection.call(
      seal("site-1", site.secret, 1, pack(RegisterRequest{"site-1", site.token})));
  EXPECT_EQ(decode_error(open(reply, site.secret).payload).code,
            ErrorCode::kWrongJob);
  EXPECT_THROW(FederatedClient(ClientConfig{}, site,
                               std::make_unique<InProcConnection>(runner.async_router()),
                               std::make_shared<ConstantLearner>("site-1", 1.0f)),
               ConfigError);
  EXPECT_TRUE(runner.abort("solo", "test teardown"));
}

TEST_F(JobsTest, CrossJobReplayDoesNotPoisonTheReplayTracker) {
  // Sites share one credential across jobs, so a captured job-a frame with a
  // high sequence number verifies at job-b's server too. It must be rejected
  // on its job binding BEFORE the replay tracker advances — otherwise one
  // replayed frame wedges the site's legitimate job-b client, whose own
  // sequences start far below, as a false replay.
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(2);  // both jobs must be admitted
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  runner.submit(make_spec("job-b", 1, 2));
  const Credential& site = pool.at("site-1");
  InProcConnection connection(runner.server("job-b").async_dispatcher());

  const std::vector<std::uint8_t> replayed =
      seal("site-1", site.secret, 1000,
           pack(RegisterRequest{"site-1", site.token}), "job-a");
  const auto replayed_reply = connection.call(replayed);
  EXPECT_EQ(decode_error(open(replayed_reply, site.secret).payload).code,
            ErrorCode::kWrongJob);

  // The site's first legitimate job-b frame (sequence 1) still goes through.
  const std::vector<std::uint8_t> legit =
      seal("site-1", site.secret, 1,
           pack(RegisterRequest{"site-1", site.token}), "job-b");
  const auto legit_reply = connection.call(legit);
  EXPECT_TRUE(decode_register_ack(open(legit_reply, site.secret).payload).accepted);

  EXPECT_TRUE(runner.abort("job-a", "test teardown"));
  EXPECT_TRUE(runner.abort("job-b", "test teardown"));
  core::set_compute_threads(old_budget);
}

TEST_F(JobsTest, UnknownSendersCannotEnumerateHostedJobIds) {
  // An unprovisioned peer can seal under the empty secret. The router must
  // answer it identically whether or not the probed job id exists — a
  // kWrongJob-vs-unknown-participant difference would be a credential-free
  // oracle enumerating which jobs this coordinator hosts.
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  runner.submit(make_spec("job-b", 1, 2));
  InProcConnection connection(runner.async_router());
  const std::vector<std::uint8_t> empty_key;
  const auto probe = [&](const std::string& job_id) {
    const std::vector<std::uint8_t> frame =
        seal("mallory", empty_key, 1, pack(GetTaskRequest{"s", 0}), job_id);
    const auto reply = connection.call(frame);
    return decode_error(open(reply, empty_key).payload);
  };
  const ErrorMessage hosted = probe("job-a");     // hosted here
  const ErrorMessage unhosted = probe("job-zz");  // not hosted anywhere
  EXPECT_EQ(hosted.code, ErrorCode::kRetryable);
  EXPECT_EQ(unhosted.code, hosted.code);
  EXPECT_EQ(unhosted.message, hosted.message);

  EXPECT_TRUE(runner.abort("job-a", "test teardown"));
  EXPECT_TRUE(runner.abort("job-b", "test teardown"));
}

// ---------------------------------------------------------------------------
// Abort while running
// ---------------------------------------------------------------------------

TEST_F(JobsTest, AbortWhileRunningStopsClientsAndRecordsTheReason) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1000, 2));  // far more rounds than we run
  FederatedServer& server = runner.server("job-a");

  std::vector<std::thread> threads;
  for (std::int64_t i = 0; i < 2; ++i) {
    const std::string name = "site-" + std::to_string(i + 1);
    threads.emplace_back([&runner, &pool, name] {
      ClientConfig config;
      config.job_id = "job-a";
      config.max_idle_ms = 30000;
      FederatedClient client(
          config, pool.at(name),
          std::make_unique<InProcConnection>(runner.async_router()),
          std::make_shared<ConstantLearner>(name, 2.0f));
      client.run();  // returns on the server's kStop after the abort
    });
  }
  // Let the federation make real progress before pulling the plug.
  while (server.current_round() < 2) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(runner.abort("job-a", "operator requested"));
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(runner.wait_all(30000));
  const JobStatus s = runner.status("job-a");
  EXPECT_EQ(s.state, JobState::kAborted);
  EXPECT_EQ(s.abort_code, AbortCode::kExternal);
  EXPECT_NE(s.abort_reason.find("operator requested"), std::string::npos);
  // A terminal job cannot be aborted twice.
  EXPECT_FALSE(runner.abort("job-a", "again"));
}

TEST_F(JobsTest, AbortAfterCleanFinishIsRefused) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", 1, 2));
  drive_job(pool, "job-a", 0, 2, [&runner] {
    return std::make_unique<InProcConnection>(runner.async_router());
  });
  ASSERT_TRUE(runner.wait_all(30000));
  FederatedServer& server = runner.server("job-a");
  ASSERT_TRUE(server.finished());
  // The server settles the finish-vs-abort race under its own lock: a late
  // abort is refused rather than flipping a finished run to aborted.
  EXPECT_FALSE(server.abort("too late"));
  EXPECT_TRUE(server.finished());
  EXPECT_FALSE(server.aborted());
  EXPECT_EQ(runner.status("job-a").state, JobState::kFinished);
  EXPECT_FALSE(runner.abort("job-a", "too late"));
}

// ---------------------------------------------------------------------------
// Resume: a job restored past its last round is terminal at admission
// ---------------------------------------------------------------------------

TEST_F(JobsTest, ResumedCompleteJobIsTerminalAtAdmissionAndFreesItsSlots) {
  const auto pool = make_pool(2);
  const std::string persist = (root_ / "done.bin").string();
  {
    JobRunner runner(pool);
    JobSpec spec = make_spec("job-done", 1, 2);
    spec.persist_path = persist;
    runner.submit(std::move(spec));
    drive_job(pool, "job-done", 0, 2, [&runner] {
      return std::make_unique<InProcConnection>(runner.async_router());
    });
    ASSERT_TRUE(runner.wait_all(30000));
  }
  // Restart with resume=true: the checkpoint already covers every round, so
  // the server is born finished and never fires kEndRun. The job must still
  // go terminal — slots freed, FIFO successors admitted, wait_all returning
  // — or a coordinator restarted after a job finished wedges forever.
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(1);
  {
    JobRunner restarted(pool);
    JobSpec resumed = make_spec("job-done", 1, 2);
    resumed.persist_path = persist;
    resumed.resume = true;
    restarted.submit(std::move(resumed));
    EXPECT_EQ(restarted.status("job-done").state, JobState::kFinished);
    EXPECT_TRUE(restarted.wait_all(10000));
    // The whole 1-slot budget is free again: the next job is admitted
    // immediately instead of queueing behind the resumed-complete one.
    restarted.submit(make_spec("job-next", 1, 2));
    EXPECT_EQ(restarted.status("job-next").state, JobState::kRunning);
    EXPECT_TRUE(restarted.abort("job-next", "test teardown"));
    EXPECT_TRUE(restarted.wait_all(10000));
  }
  core::set_compute_threads(old_budget);
}

// Resume: a job whose journal holds an open round replays it while the
// runner admits it. The replay takes the new server's round lock, and an
// abort fires kEndRun under that lock into on_job_end, which takes the
// runner's lock — so the server must be built with the runner's lock
// released, or the two paths take the pair in opposite orders (TSan reports
// a lock-order inversion; jobs_test runs in the TSan subset of ci.sh).
TEST_F(JobsTest, ResumedOpenRoundJobAbortsWithoutLockInversion) {
  const auto pool = make_pool(2);
  const std::string persist = (root_ / "open.bin").string();
  {
    // What a coordinator that died mid-round leaves: round 0 open, one
    // contribution accepted, no checkpoint yet.
    RoundJournal journal(persist + ".journal", core::WalSyncPolicy::kEveryRecord);
    (void)journal.open("job-open");
    journal.round_open(0, {});
    Dxo update(DxoKind::kWeights, jobs_harness::dict_of({1.0f, 2.0f, 3.0f}));
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    journal.accepted("site-1", update);
  }
  JobRunner runner(pool);
  JobSpec spec = make_spec("job-open", 5, 2);
  spec.persist_path = persist;
  spec.resume = true;
  spec.journal = true;
  runner.submit(std::move(spec));
  ASSERT_EQ(runner.status("job-open").state, JobState::kRunning);
  EXPECT_EQ(runner.server("job-open").current_round(), 0);

  EXPECT_TRUE(runner.abort("job-open", "operator requested"));
  EXPECT_TRUE(runner.wait_all(10000));
  const JobStatus status = runner.status("job-open");
  EXPECT_EQ(status.state, JobState::kAborted);
  EXPECT_NE(status.abort_reason.find("operator requested"), std::string::npos);
}

/// FedAvg whose first reset — the one the server's constructor makes —
/// announces itself and waits to be released, holding a job mid-build.
class GatedAggregator : public FedAvgAggregator {
 public:
  GatedAggregator(std::promise<void>* entered, std::shared_future<void> release)
      : FedAvgAggregator(false), entered_(entered), release_(std::move(release)) {}

  void reset(const nn::StateDict& global, std::int64_t round) override {
    if (entered_ != nullptr) {
      std::exchange(entered_, nullptr)->set_value();
      release_.wait();
    }
    FedAvgAggregator::reset(global, round);
  }

 private:
  std::promise<void>* entered_;
  std::shared_future<void> release_;
};

TEST_F(JobsTest, AbortWhileTheServerIsBeingBuiltIsDeliveredOnceInstalled) {
  const auto pool = make_pool(2);
  JobRunner runner(pool);
  std::promise<void> entered;
  std::promise<void> release;
  JobSpec spec = make_spec("job-slow", 5, 2);
  spec.aggregator =
      std::make_unique<GatedAggregator>(&entered, release.get_future().share());
  std::thread submitter([&runner, &spec] { runner.submit(std::move(spec)); });
  entered.get_future().wait();
  // The runner's lock is free while the server is built: the job still
  // reads as queued, and an abort is parked rather than lost.
  EXPECT_EQ(runner.status("job-slow").state, JobState::kQueued);
  EXPECT_TRUE(runner.abort("job-slow", "operator requested"));
  release.set_value();
  submitter.join();

  EXPECT_TRUE(runner.wait_all(10000));
  const JobStatus status = runner.status("job-slow");
  EXPECT_EQ(status.state, JobState::kAborted);
  EXPECT_NE(status.abort_reason.find("operator requested"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: concurrent jobs match their solo twins, both transports
// ---------------------------------------------------------------------------

TEST_F(JobsTest, TwoConcurrentJobsMatchSoloRuns) {
  const std::int64_t kSites = 4;
  const std::int64_t kRounds = 3;
  // Pin the budget so both jobs genuinely run concurrently — on a 1-core
  // machine one would queue, and its clients' retry budgets can expire
  // before capacity frees (especially under TSan's slowdown).
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(2);
  const auto pool = make_pool(kSites);
  JobRunner runner(pool);
  runner.submit(make_spec("job-a", kRounds, kSites));
  runner.submit(make_spec("job-b", kRounds, kSites));
  std::vector<std::thread> drivers;
  const std::vector<std::string> job_ids = {"job-a", "job-b"};
  for (std::size_t j = 0; j < job_ids.size(); ++j) {
    drivers.emplace_back([&, j] {
      drive_job(pool, job_ids[j], static_cast<std::int64_t>(j), kSites,
                [&runner] {
                  return std::make_unique<InProcConnection>(
                      runner.async_router());
                });
    });
  }
  for (std::thread& t : drivers) t.join();
  ASSERT_TRUE(runner.wait_all(30000));

  for (std::size_t j = 0; j < job_ids.size(); ++j) {
    EXPECT_EQ(runner.status(job_ids[j]).state, JobState::kFinished);
    const auto concurrent = model_bytes(runner.server(job_ids[j]).global_model());
    const auto solo = solo_final(pool, job_ids[j], static_cast<std::int64_t>(j),
                                 kRounds, kSites);
    EXPECT_EQ(concurrent, solo)
        << job_ids[j] << " diverged from its solo twin";
  }
  core::set_compute_threads(old_budget);
}

TEST_F(JobsTest, FourConcurrentJobsEightSitesMatchSoloOnBothTransports) {
  const std::int64_t kJobs = 4;
  const std::int64_t kSites = 8;
  const std::int64_t kRounds = 2;
  // All four jobs must hold a slot at once (see TwoConcurrentJobs above).
  const std::size_t old_budget = core::compute_threads();
  core::set_compute_threads(static_cast<std::size_t>(kJobs));
  const auto pool = make_pool(kSites);

  // Solo references, one per job.
  std::vector<std::vector<std::uint8_t>> solo;
  for (std::int64_t j = 0; j < kJobs; ++j) {
    solo.push_back(solo_final(pool, "job-" + std::to_string(j), j, kRounds,
                              kSites));
  }

  for (const bool use_tcp : {false, true}) {
    SCOPED_TRACE(use_tcp ? "tcp" : "in-proc");
    JobRunner runner(pool);
    for (std::int64_t j = 0; j < kJobs; ++j) {
      runner.submit(make_spec("job-" + std::to_string(j), kRounds, kSites));
    }
    std::unique_ptr<TcpServer> tcp;
    if (use_tcp) {
      tcp = std::make_unique<TcpServer>(0, runner.async_router());
    }
    std::vector<std::thread> drivers;
    for (std::int64_t j = 0; j < kJobs; ++j) {
      drivers.emplace_back([&, j] {
        const std::string job_id = "job-" + std::to_string(j);
        drive_job(pool, job_id, j, kSites,
                  [&runner, &tcp]() -> std::unique_ptr<Connection> {
                    if (tcp != nullptr) {
                      return std::make_unique<TcpConnection>("127.0.0.1",
                                                             tcp->port());
                    }
                    return std::make_unique<InProcConnection>(
                        runner.async_router());
                  });
      });
    }
    for (std::thread& t : drivers) t.join();
    ASSERT_TRUE(runner.wait_all(60000));
    for (std::int64_t j = 0; j < kJobs; ++j) {
      const std::string job_id = "job-" + std::to_string(j);
      EXPECT_EQ(runner.status(job_id).state, JobState::kFinished);
      EXPECT_EQ(model_bytes(runner.server(job_id).global_model()),
                solo[static_cast<std::size_t>(j)])
          << job_id << " diverged from its solo twin";
    }
  }
  core::set_compute_threads(old_budget);
}

// ---------------------------------------------------------------------------
// Durability: in-flight jobs survive a coordinator SIGKILL
// ---------------------------------------------------------------------------

class JobsCrashTest : public JobsTest {
 protected:
  /// fork + re-exec this binary as a two-job coordinator child.
  int run_child(const std::string& dir, const std::string& crash_point) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (crash_point.empty()) {
        ::unsetenv("CPPFLARE_CRASHPOINT");
      } else {
        ::setenv("CPPFLARE_CRASHPOINT", crash_point.c_str(), 1);
      }
      ::execl("/proc/self/exe", "jobs_test", "--jobs-child", dir.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }

  static std::vector<std::uint8_t> slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }

  std::string fresh_dir(const std::string& label) {
    std::string clean = label;
    for (char& c : clean) {
      if (c == '.' || c == '@' || c == '/') c = '_';
    }
    const auto dir = root_ / clean;
    std::filesystem::create_directories(dir);
    return dir.string();
  }
};

TEST_F(JobsCrashTest, InFlightJobsResumeAfterCoordinatorKill) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  // Never-crashed reference finals, one pair per scenario run.
  const std::string ref_dir = fresh_dir("ref");
  const int ref = run_child(ref_dir, "");
  ASSERT_TRUE(WIFEXITED(ref) && WEXITSTATUS(ref) == 0)
      << "reference run failed, status " << ref;
  const auto ref_a = slurp(ref_dir + "/final_job-a");
  const auto ref_b = slurp(ref_dir + "/final_job-b");
  ASSERT_FALSE(ref_a.empty());
  ASSERT_FALSE(ref_b.empty());

  for (const std::string point :
       {"journal.commit.before", "persist.rename.before"}) {
    SCOPED_TRACE(point);
    const std::string dir = fresh_dir(point);
    // Whichever job reaches the point first takes the whole coordinator
    // down — both jobs are in flight at the kill.
    const int killed = run_child(dir, point);
    ASSERT_TRUE(WIFSIGNALED(killed))
        << "child survived its crash point (status " << killed << ")";
    ASSERT_EQ(WTERMSIG(killed), SIGKILL);

    const int completed = run_child(dir, "");
    ASSERT_TRUE(WIFEXITED(completed) && WEXITSTATUS(completed) == 0)
        << "completer failed with status " << completed;
    EXPECT_EQ(slurp(dir + "/final_job-a"), ref_a)
        << "job-a diverged after kill/restart";
    EXPECT_EQ(slurp(dir + "/final_job-b"), ref_b)
        << "job-b diverged after kill/restart";
  }
}

}  // namespace
}  // namespace cppflare::flare

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--jobs-child") == 0) {
    return cppflare::flare::jobs_harness::child_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
