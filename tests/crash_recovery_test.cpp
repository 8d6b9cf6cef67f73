// Deterministic crash-point death tests (DESIGN.md §15).
//
// The acceptance bar for the durable coordinator: for EVERY registered
// crash point, a subprocess coordinator killed (real SIGKILL, no unwinding)
// at that point, then restarted against the same checkpoint + journal
// files, completes the federation with a final model memcmp-equal to a
// never-crashed reference run — and sites whose contributions were already
// journaled are not asked to train that round again.
//
// Harness shape: the test binary re-execs itself as `--crash-child
// <scenario> <dir> <incarnation>`; the parent arms one crash point in the
// child's environment (CPPFLARE_CRASHPOINT), asserts the child died by
// SIGKILL, re-runs the child clean, and diffs the result. Scenarios cover
// the threaded and TCP transports and a masked (secure-agg) federation that
// journal-replays from inside the recovery freeze.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/backoff.h"
#include "core/bytes.h"
#include "core/crashpoint.h"
#include "core/error.h"
#include "core/logging.h"
#include "flare/journal.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace crash_harness {

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

nn::StateDict tiny_model() { return dict_of({0.0f, 0.0f, 0.0f, 0.0f}); }

/// Constant learner that appends "<round> <site>" to a per-incarnation log
/// before returning, so the parent can prove a replayed site never trained
/// its round twice. A crash_round >= 0 makes the site throw instead (the
/// permanently-dead site of the masked scenario).
class LoggedConstLearner : public Learner {
 public:
  LoggedConstLearner(std::string site, float value, std::string log_path,
                     std::int64_t crash_round)
      : site_(std::move(site)),
        value_(value),
        log_path_(std::move(log_path)),
        crash_round_(crash_round) {}

  Dxo train(const Dxo& global, const FLContext& ctx) override {
    if (crash_round_ >= 0 && ctx.current_round >= crash_round_) {
      throw Error("site dead from round " + std::to_string(crash_round_));
    }
    {
      std::ofstream log(log_path_, std::ios::app);
      log << ctx.current_round << " " << site_ << "\n";
    }
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
  std::string log_path_;
  std::int64_t crash_round_;
};

void write_final(const std::string& dir, const nn::StateDict& model) {
  core::ByteWriter w;
  model.serialize(w);
  std::ofstream out(dir + "/final.bin", std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
}

/// Threaded / TCP federation: 4 constant-learner sites, 3 rounds,
/// checkpoint + journal under `dir`. Written to be restart-oblivious: the
/// same code path runs fresh, resumed mid-round, and resumed post-commit.
int run_plain(const std::string& dir, bool use_tcp, const std::string& inc) {
  SimulatorConfig config;
  config.job_id = "crash-plain";
  config.num_clients = 4;
  config.num_rounds = 3;
  config.use_tcp = use_tcp;
  config.persist_path = dir + "/model.bin";
  config.resume = true;
  config.journal = true;
  const std::string log = dir + "/trained_" + inc + ".txt";
  SimulatorRunner runner(
      config, tiny_model(), std::make_unique<FedAvgAggregator>(false),
      [log](std::int64_t i, const std::string& name) {
        return std::make_shared<LoggedConstLearner>(
            name, 0.5f * static_cast<float>(i), log, -1);
      });
  const SimulationResult result = runner.run();
  if (result.aborted) {
    std::fprintf(stderr, "child aborted: %s\n", result.abort_reason.c_str());
    return 3;
  }
  write_final(dir, result.final_model);
  return 0;
}

/// Masked federation with a permanently dead site: every round closes on
/// the deadline with 3 of 4 contributions and detours through mask
/// recovery, so recovery.* crash points fire inside the freeze.
int run_masked(const std::string& dir, const std::string& inc) {
  SimulatorConfig config;
  config.job_id = "crash-masked";
  config.num_clients = 4;
  config.num_rounds = 2;
  config.min_clients = 3;
  config.round_deadline_ms = 300;
  config.secure_agg.enabled = true;
  config.secure_agg.dealer_seed = 99;
  config.persist_path = dir + "/model.bin";
  config.resume = true;
  config.journal = true;
  config.journal_sync = core::WalSyncPolicy::kEveryRecord;
  const std::string log = dir + "/trained_" + inc + ".txt";
  SimulatorRunner runner(
      config, tiny_model(), std::make_unique<FedAvgAggregator>(false),
      [log](std::int64_t i, const std::string& name) {
        return std::make_shared<LoggedConstLearner>(
            name, 0.5f * static_cast<float>(i), log, i == 3 ? 0 : -1);
      });
  const SimulationResult result = runner.run();
  if (result.aborted) {
    std::fprintf(stderr, "child aborted: %s\n", result.abort_reason.c_str());
    return 3;
  }
  write_final(dir, result.final_model);
  return 0;
}

/// Wire-level masked federation whose recovery demotes a survivor: site-4
/// never submits (drop at round close), site-3 submits but never answers
/// its UnmaskRequest (demoted at the wave deadline — recovery.wave.mid
/// fires inside that demotion). The driver is adaptive, not scripted: it
/// reacts to whatever the (possibly replayed) server asks next, so the same
/// loop completes a fresh run and one resumed from inside any wave.
int run_wave(const std::string& dir, const std::string&) {
  ServerConfig config;
  config.job_id = "crash-wave";
  config.num_rounds = 1;
  config.expected_clients = 4;
  config.min_clients = 2;
  config.round_deadline_ms = 150;
  config.secure_agg.enabled = true;
  config.secure_agg.recovery_deadline_ms = 400;

  const auto registry = Provisioner(config.job_id, 17).provision_sites(4);
  auto persistor = std::make_shared<ModelPersistor>(dir + "/model.bin");
  auto journal = std::make_shared<RoundJournal>(
      dir + "/model.bin.journal", core::WalSyncPolicy::kEveryRecord);
  FederatedServer server(config, registry, dict_of({0.0f, 0.0f}),
                         std::make_unique<MaskedFedAvgAggregator>(16),
                         persistor, persistor->load(), std::move(journal));
  InProcConnection connection(server.async_dispatcher());

  std::vector<std::string> names = {"site-1", "site-2", "site-3", "site-4"};
  std::map<std::string, std::shared_ptr<SecureAggMaskFilter>> maskers;
  for (const std::string& name : names) {
    maskers[name] =
        make_secure_agg_mask_filter(config.job_id, 7, name, names);
  }
  std::map<std::string, SequenceSource> seq;
  std::map<std::string, std::string> sessions;
  const auto call = [&](const std::string& site,
                        const std::vector<std::uint8_t>& frame) {
    const Credential& cred = registry.at(site);
    const auto response =
        connection.call(seal(cred.name, cred.secret, seq[site].next(), frame,
                             config.job_id));
    const Envelope env = open(response, cred.secret);
    return std::vector<std::uint8_t>(env.payload.begin(), env.payload.end());
  };
  for (const std::string& site : names) {
    const RegisterAck ack = decode_register_ack(
        call(site, pack(RegisterRequest{site, registry.at(site).token})));
    if (!ack.accepted) return 4;
    sessions[site] = ack.session_id;
  }

  const std::map<std::string, std::vector<float>> values = {
      {"site-1", {1.0f, 2.0f}},
      {"site-2", {3.0f, -1.0f}},
      {"site-3", {5.0f, 5.0f}}};
  std::map<std::string, std::int64_t> answered = {{"site-1", -1},
                                                  {"site-2", -1}};
  // site-4 never polls; site-3 trains when asked but never unmasks.
  for (int spin = 0; spin < 3000 && !server.finished() && !server.aborted();
       ++spin) {
    for (const std::string site : {"site-1", "site-2", "site-3"}) {
      const auto frame = call(site, pack(GetTaskRequest{sessions.at(site)}));
      if (peek_type(frame) == MsgType::kTask &&
          decode_task(frame).task == TaskKind::kTrain) {
        SubmitUpdateRequest req;
        req.session_id = sessions.at(site);
        req.round = 0;
        req.payload = Dxo(DxoKind::kWeights, dict_of(values.at(site)));
        req.payload.set_meta_int(Dxo::kMetaNumSamples, 10);
        FLContext ctx;
        ctx.current_round = 0;
        maskers.at(site)->process(req.payload, ctx);
        (void)decode_submit_ack(call(site, pack(req)));
      } else if (peek_type(frame) == MsgType::kUnmaskRequest &&
                 answered.count(site) != 0) {
        const UnmaskRequest req = decode_unmask_request(frame);
        if (req.wave > answered.at(site)) {
          const Dxo share = maskers.at(site)->unmask_share(
              req.dropped, req.round, req.skeleton.data());
          (void)decode_submit_ack(
              call(site, pack(UnmaskResponse{sessions.at(site), req.round,
                                             req.wave, share})));
          answered.at(site) = req.wave;
        }
      }
    }
    core::Backoff::sleep_ms(10);
  }
  if (!server.finished()) {
    std::fprintf(stderr, "wave child did not finish: %s\n",
                 server.abort_reason().c_str());
    return 3;
  }
  write_final(dir, server.global_model());
  return 0;
}

int child_main(int argc, char** argv) {
  if (argc < 5) return 4;
  const std::string scenario = argv[2];
  const std::string dir = argv[3];
  const std::string inc = argv[4];
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  try {
    if (scenario == "plain-threaded") return run_plain(dir, false, inc);
    if (scenario == "plain-tcp") return run_plain(dir, true, inc);
    if (scenario == "masked-dead") return run_masked(dir, inc);
    if (scenario == "manual-wave") return run_wave(dir, inc);
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "child threw: %s\n", e.what());
    return 4;
  }
}

}  // namespace crash_harness

namespace {

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

/// Which scenario exercises each registered crash point. CatalogIsCovered
/// asserts this map stays total as points are added.
const std::map<std::string, std::string>& point_scenarios() {
  static const std::map<std::string, std::string> scenarios = {
      {"persist.write.after", "plain-threaded"},
      {"persist.rename.before", "plain-threaded"},
      {"persist.rename.after", "plain-threaded"},
      {"journal.open.after", "plain-threaded"},
      {"journal.append.after", "plain-threaded"},
      {"journal.commit.before", "plain-threaded"},
      {"journal.commit.after", "plain-threaded"},
      {"journal.compact.before", "plain-threaded"},
      {"replay.mid", "plain-threaded"},
      {"recovery.begin.after", "masked-dead"},
      {"recovery.share.after", "masked-dead"},
      {"recovery.wave.mid", "manual-wave"},
  };
  return scenarios;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    root_ = std::filesystem::temp_directory_path() /
            ("cppflare_crash_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override {
    std::filesystem::remove_all(root_);
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
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

  /// fork + re-exec this binary as a coordinator child. `crash_point` lands
  /// in CPPFLARE_CRASHPOINT (empty = run clean). Returns the raw wait()
  /// status so callers can distinguish SIGKILL from a clean exit.
  int run_child(const std::string& scenario, const std::string& dir,
                const std::string& inc, const std::string& crash_point) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (crash_point.empty()) {
        ::unsetenv("CPPFLARE_CRASHPOINT");
      } else {
        ::setenv("CPPFLARE_CRASHPOINT", crash_point.c_str(), 1);
      }
      ::execl("/proc/self/exe", "crash_recovery_test", "--crash-child",
              scenario.c_str(), dir.c_str(), inc.c_str(),
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

  /// The never-crashed reference for `scenario`, computed once per test
  /// process (same child binary, no crash point armed).
  std::vector<std::uint8_t> reference_final(const std::string& scenario) {
    auto it = references_.find(scenario);
    if (it != references_.end()) return it->second;
    const std::string dir = fresh_dir("ref_" + scenario);
    const int status = run_child(scenario, dir, "ref", "");
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "reference run for " << scenario << " failed, status " << status;
    const auto bytes = slurp(dir + "/final.bin");
    EXPECT_FALSE(bytes.empty());
    references_[scenario] = bytes;
    return bytes;
  }

  /// The (round, site) pairs journaled as accepted — what the restarted
  /// coordinator must NOT ask to train again.
  static std::set<std::pair<std::int64_t, std::string>> journaled_accepts(
      const std::string& journal_path) {
    std::set<std::pair<std::int64_t, std::string>> accepted;
    if (!std::filesystem::exists(journal_path)) return accepted;
    std::int64_t open_round = -1;
    for (const JournalEvent& ev : RoundJournal::read(journal_path)) {
      switch (ev.type) {
        case JournalEventType::kRoundOpen:
          open_round = ev.round;
          break;
        case JournalEventType::kCommit:
          open_round = -1;
          break;
        case JournalEventType::kAccepted:
          if (open_round >= 0) accepted.insert({open_round, ev.site});
          break;
        default:
          break;
      }
    }
    return accepted;
  }

  static std::set<std::pair<std::int64_t, std::string>> trained_pairs(
      const std::string& log_path) {
    std::set<std::pair<std::int64_t, std::string>> trained;
    std::ifstream in(log_path);
    std::int64_t round = 0;
    std::string site;
    while (in >> round >> site) trained.insert({round, site});
    return trained;
  }

  /// Kill at `point`, read what the journal promises, restart clean, and
  /// assert (a) SIGKILL really happened, (b) the completer's final model is
  /// byte-identical to the never-crashed reference, (c) journaled accepts
  /// were not re-trained by the completer.
  void run_crash_cycle(const std::string& scenario, const std::string& point) {
    SCOPED_TRACE(scenario + " @ " + point);
    const std::string dir = fresh_dir(scenario + "_" + point);
    const int killed = run_child(scenario, dir, "a", point);
    ASSERT_TRUE(WIFSIGNALED(killed))
        << "child survived its crash point (status " << killed << ")";
    ASSERT_EQ(WTERMSIG(killed), SIGKILL);

    const auto accepts = journaled_accepts(dir + "/model.bin.journal");
    const int completed = run_child(scenario, dir, "b", "");
    ASSERT_TRUE(WIFEXITED(completed) && WEXITSTATUS(completed) == 0)
        << "completer failed with status " << completed;

    const auto final_bytes = slurp(dir + "/final.bin");
    ASSERT_FALSE(final_bytes.empty());
    EXPECT_EQ(final_bytes, reference_final(scenario))
        << "recovered run diverged from the never-crashed reference";

    const auto retrained = trained_pairs(dir + "/trained_b.txt");
    for (const auto& [round, site] : accepts) {
      EXPECT_EQ(retrained.count({round, site}), 0u)
          << site << " was re-trained for round " << round
          << " despite its journaled contribution";
    }
  }

  std::map<std::string, std::vector<std::uint8_t>> references_;
  std::filesystem::path root_;
};

TEST_F(CrashRecoveryTest, CatalogIsCoveredByScenarios) {
  // Every registered crash point must be mapped to a death-test scenario —
  // adding a CF_CRASHPOINT without covering it here is a test failure.
  const auto& catalog = core::crashpoint_catalog();
  EXPECT_EQ(catalog.size(), point_scenarios().size());
  for (const std::string& name : catalog) {
    EXPECT_EQ(point_scenarios().count(name), 1u)
        << "crash point '" << name << "' has no death-test scenario";
  }
}

TEST_F(CrashRecoveryTest, ThreadedKillAtEveryPersistAndJournalPoint) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  for (const auto& [point, scenario] : point_scenarios()) {
    if (scenario != "plain-threaded" || point == "replay.mid") continue;
    run_crash_cycle("plain-threaded", point);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, TcpTransportSurvivesMidRoundKills) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  // The wire path changes nothing about durability: re-run the core
  // mid-round points over loopback TCP.
  for (const std::string point :
       {"journal.append.after", "persist.rename.before",
        "journal.commit.before"}) {
    run_crash_cycle("plain-tcp", point);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, DoubleCrashKillsTheReplayItself) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  // Crash mid-round, then crash the NEXT incarnation inside its journal
  // replay: the journal is only compacted at the commit barrier, so the
  // third incarnation replays the same log and completes.
  const std::string dir = fresh_dir("double_crash");
  const int first = run_child("plain-threaded", dir, "a", "journal.append.after");
  ASSERT_TRUE(WIFSIGNALED(first) && WTERMSIG(first) == SIGKILL);
  const auto accepts = journaled_accepts(dir + "/model.bin.journal");
  ASSERT_FALSE(accepts.empty());

  const int second = run_child("plain-threaded", dir, "b", "replay.mid");
  ASSERT_TRUE(WIFSIGNALED(second) && WTERMSIG(second) == SIGKILL)
      << "replay.mid did not fire — the second incarnation found no journal";

  const int third = run_child("plain-threaded", dir, "c", "");
  ASSERT_TRUE(WIFEXITED(third) && WEXITSTATUS(third) == 0);
  EXPECT_EQ(slurp(dir + "/final.bin"), reference_final("plain-threaded"));
  const auto retrained = trained_pairs(dir + "/trained_c.txt");
  for (const auto& [round, site] : accepts) {
    EXPECT_EQ(retrained.count({round, site}), 0u);
  }
}

TEST_F(CrashRecoveryTest, MaskedRoundReplaysFromInsideTheRecoveryFreeze) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  for (const std::string point :
       {"recovery.begin.after", "recovery.share.after"}) {
    run_crash_cycle("masked-dead", point);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, DemotionCascadeSurvivesAKillMidWave) {
  if (kTsan) GTEST_SKIP() << "fork-based death tests are timing-fragile under TSan";
  run_crash_cycle("manual-wave", "recovery.wave.mid");
}

TEST_F(CrashRecoveryTest, LiveJournalingFederationIsRaceFree) {
  // No fork: a journaling federation under full concurrent client traffic,
  // here for the TSan leg of CI (the death tests above skip under TSan).
  SimulatorConfig config;
  config.job_id = "tsan-journal";
  config.num_clients = 6;
  config.num_rounds = 3;
  config.persist_path =
      (root_ / "tsan_model.bin").string();
  config.journal = true;
  SimulatorRunner runner(
      config, crash_harness::tiny_model(),
      std::make_unique<FedAvgAggregator>(false),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<crash_harness::LoggedConstLearner>(
            name, 0.25f * static_cast<float>(i), "/dev/null", -1);
      });
  const SimulationResult result = runner.run();
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.history.size(), 3u);
}

}  // namespace
}  // namespace cppflare::flare

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "--crash-child") == 0) {
    return cppflare::flare::crash_harness::child_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
