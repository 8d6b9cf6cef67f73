// Write-ahead round journal (DESIGN.md §15).
//
// Three layers: the typed event codec round-trips every record shape; the
// RoundJournal lifecycle (header, open round, commit barrier, compaction,
// stale-discard, torn tail, job-id mismatch) behaves as specified against
// the file alone; and a restarted FederatedServer replays a mid-round
// journal so already-resolved sites answer idempotently (kDuplicate for
// accepted, the identical typed rejection for rejected) and are never asked
// to train the round again. The crash-point death tests live in
// crash_recovery_test.cpp; this file covers the no-crash semantics.
#include "flare/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/backoff.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/wal.h"
#include "flare/aggregator.h"
#include "flare/messages.h"
#include "flare/observability.h"
#include "flare/provision.h"
#include "flare/secure_agg.h"
#include "flare/secure_channel.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace cppflare::flare {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    dir_ = std::filesystem::temp_directory_path() /
           ("cppflare_journal_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

nn::StateDict dict_of(std::vector<float> w) {
  nn::StateDict d;
  d.insert("w", {{static_cast<std::int64_t>(w.size())}, std::move(w)});
  return d;
}

bool bit_equal(const nn::StateDict& a, const nn::StateDict& b) {
  if (!a.congruent_with(b)) return false;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  for (; ia != a.entries().end(); ++ia, ++ib) {
    if (std::memcmp(ia->second.values.data(), ib->second.values.data(),
                    ia->second.values.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Dxo sample_update(float v) {
  Dxo update(DxoKind::kWeights, dict_of({v, v * 2}));
  update.set_meta_int(Dxo::kMetaNumSamples, 10);
  return update;
}

// ---------------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------------

TEST_F(JournalTest, EventNamesAreStable) {
  EXPECT_STREQ(journal_event_name(JournalEventType::kJobHeader), "job_header");
  EXPECT_STREQ(journal_event_name(JournalEventType::kRoundOpen), "round_open");
  EXPECT_STREQ(journal_event_name(JournalEventType::kAccepted), "accepted");
  EXPECT_STREQ(journal_event_name(JournalEventType::kRejected), "rejected");
  EXPECT_STREQ(journal_event_name(JournalEventType::kQuarantineScored),
               "quarantine_scored");
  EXPECT_STREQ(journal_event_name(JournalEventType::kEviction), "eviction");
  EXPECT_STREQ(journal_event_name(JournalEventType::kRecoveryBegin),
               "recovery_begin");
  EXPECT_STREQ(journal_event_name(JournalEventType::kUnmaskShare),
               "unmask_share");
  EXPECT_STREQ(journal_event_name(JournalEventType::kRecoveryWave),
               "recovery_wave");
  EXPECT_STREQ(journal_event_name(JournalEventType::kCommit), "commit");
}

TEST_F(JournalTest, EveryEventTypeEncodesAndDecodes) {
  JournalEvent header;
  header.type = JournalEventType::kJobHeader;
  header.job_id = "job-x";
  JournalEvent open;
  open.type = JournalEventType::kRoundOpen;
  open.round = 7;
  open.names = {"site-1", "site-2"};
  JournalEvent accepted;
  accepted.type = JournalEventType::kAccepted;
  accepted.site = "site-2";
  accepted.payload = sample_update(1.5f);
  JournalEvent rejected;
  rejected.type = JournalEventType::kRejected;
  rejected.site = "site-3";
  rejected.reason = 2;
  rejected.detail = "non-finite values";
  JournalEvent scored;
  scored.type = JournalEventType::kQuarantineScored;
  scored.site = "site-4";
  scored.reason = 6;
  scored.detail = "quarantined; scored only";
  scored.norm = 3.25;
  JournalEvent evicted;
  evicted.type = JournalEventType::kEviction;
  evicted.site = "site-5";
  JournalEvent recovery;
  recovery.type = JournalEventType::kRecoveryBegin;
  recovery.round = 4;
  recovery.names = {"site-8"};
  recovery.deadline_fired = true;
  JournalEvent share;
  share.type = JournalEventType::kUnmaskShare;
  share.site = "site-1";
  share.payload = sample_update(-0.75f);
  JournalEvent wave;
  wave.type = JournalEventType::kRecoveryWave;
  wave.wave = 2;
  wave.names = {"site-6", "site-7"};
  JournalEvent commit;
  commit.type = JournalEventType::kCommit;
  commit.round = 9;

  for (const JournalEvent& ev :
       {header, open, accepted, rejected, scored, evicted, recovery, share,
        wave, commit}) {
    const JournalEvent back = JournalEvent::decode(ev.encode());
    EXPECT_EQ(back.type, ev.type) << journal_event_name(ev.type);
    EXPECT_EQ(back.job_id, ev.job_id);
    EXPECT_EQ(back.round, ev.round);
    EXPECT_EQ(back.site, ev.site);
    EXPECT_EQ(back.names, ev.names);
    EXPECT_EQ(back.reason, ev.reason);
    EXPECT_EQ(back.detail, ev.detail);
    EXPECT_DOUBLE_EQ(back.norm, ev.norm);
    EXPECT_EQ(back.deadline_fired, ev.deadline_fired);
    EXPECT_EQ(back.wave, ev.wave);
    ASSERT_EQ(back.payload.has_value(), ev.payload.has_value());
    if (ev.payload) {
      EXPECT_EQ(back.payload->kind(), ev.payload->kind());
      EXPECT_TRUE(bit_equal(back.payload->data(), ev.payload->data()));
      EXPECT_EQ(back.payload->meta_int(Dxo::kMetaNumSamples),
                ev.payload->meta_int(Dxo::kMetaNumSamples));
    }
  }
}

TEST_F(JournalTest, UnknownEventTypeIsATypedDecodeError) {
  std::vector<std::uint8_t> bytes = JournalEvent{}.encode();
  bytes[0] = 0xee;
  EXPECT_THROW((void)JournalEvent::decode(bytes), SerializationError);
}

// ---------------------------------------------------------------------------
// RoundJournal lifecycle against the file
// ---------------------------------------------------------------------------

TEST_F(JournalTest, FreshJournalWritesHeaderAndHoldsNoRound) {
  const std::string file = path("fresh.journal");
  RoundJournal journal(file, core::WalSyncPolicy::kOff);
  const JournalReplay replay = journal.open("job-a");
  EXPECT_EQ(replay.open_round, -1);
  EXPECT_EQ(replay.committed_round, -1);
  EXPECT_TRUE(replay.events.empty());
  const auto events = RoundJournal::read(file);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
  EXPECT_EQ(events[0].job_id, "job-a");
}

TEST_F(JournalTest, ReopenReturnsTheOpenRoundsEventsInOrder) {
  const std::string file = path("mid.journal");
  {
    RoundJournal journal(file, core::WalSyncPolicy::kEveryRound);
    (void)journal.open("job-b");
    journal.round_open(3, {"site-1", "site-2", "site-3"});
    journal.accepted("site-1", sample_update(1.0f));
    journal.rejected("site-2", 2, "non-finite");
    journal.evicted("site-3");
    journal.sync();
  }
  RoundJournal journal(file, core::WalSyncPolicy::kEveryRound);
  const JournalReplay replay = journal.open("job-b");
  EXPECT_EQ(replay.open_round, 3);
  EXPECT_EQ(replay.committed_round, -1);
  EXPECT_EQ(replay.torn_bytes, 0u);
  ASSERT_EQ(replay.events.size(), 4u);
  EXPECT_EQ(replay.events[0].type, JournalEventType::kRoundOpen);
  EXPECT_EQ(replay.events[0].names,
            (std::vector<std::string>{"site-1", "site-2", "site-3"}));
  EXPECT_EQ(replay.events[1].type, JournalEventType::kAccepted);
  ASSERT_TRUE(replay.events[1].payload.has_value());
  EXPECT_TRUE(bit_equal(replay.events[1].payload->data(), dict_of({1.0f, 2.0f})));
  EXPECT_EQ(replay.events[2].type, JournalEventType::kRejected);
  EXPECT_EQ(replay.events[2].detail, "non-finite");
  EXPECT_EQ(replay.events[3].type, JournalEventType::kEviction);
}

TEST_F(JournalTest, CommitCompactsBackToHeaderAlone) {
  const std::string file = path("commit.journal");
  RoundJournal journal(file, core::WalSyncPolicy::kEveryRound);
  (void)journal.open("job-c");
  journal.round_open(0, {"site-1"});
  journal.accepted("site-1", sample_update(2.0f));
  journal.commit(0);
  // The commit barrier compacted the log: nothing but the header remains on
  // disk, and a reopen finds no mid-round state.
  const auto events = RoundJournal::read(file);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
  RoundJournal reopened(file, core::WalSyncPolicy::kEveryRound);
  const JournalReplay replay = reopened.open("job-c");
  EXPECT_EQ(replay.open_round, -1);
  // The next round opens cleanly on the compacted log.
  reopened.round_open(1, {"site-1"});
  const JournalReplay again =
      RoundJournal(file, core::WalSyncPolicy::kOff).open("job-c");
  EXPECT_EQ(again.open_round, 1);
}

TEST_F(JournalTest, RecoveryEventsSurviveReopen) {
  const std::string file = path("recovery.journal");
  {
    RoundJournal journal(file, core::WalSyncPolicy::kOff);
    (void)journal.open("job-r");
    journal.round_open(2, {"site-1", "site-2", "site-3"});
    journal.accepted("site-1", sample_update(1.0f));
    journal.accepted("site-2", sample_update(2.0f));
    journal.recovery_begin(2, {"site-3"}, true);
    journal.unmask_share("site-1", sample_update(0.25f));
    journal.recovery_wave(0, {"site-2"});
  }
  const JournalReplay replay =
      RoundJournal(file, core::WalSyncPolicy::kOff).open("job-r");
  EXPECT_EQ(replay.open_round, 2);
  ASSERT_EQ(replay.events.size(), 6u);
  EXPECT_EQ(replay.events[3].type, JournalEventType::kRecoveryBegin);
  EXPECT_EQ(replay.events[3].names, (std::vector<std::string>{"site-3"}));
  EXPECT_TRUE(replay.events[3].deadline_fired);
  EXPECT_EQ(replay.events[4].type, JournalEventType::kUnmaskShare);
  EXPECT_EQ(replay.events[5].type, JournalEventType::kRecoveryWave);
  EXPECT_EQ(replay.events[5].names, (std::vector<std::string>{"site-2"}));
}

TEST_F(JournalTest, DiscardDropsRoundStateButKeepsHeader) {
  const std::string file = path("discard.journal");
  RoundJournal journal(file, core::WalSyncPolicy::kOff);
  (void)journal.open("job-d");
  journal.round_open(5, {"site-1"});
  journal.discard();
  const auto events = RoundJournal::read(file);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
  EXPECT_EQ(events[0].job_id, "job-d");
}

TEST_F(JournalTest, DifferentJobIdIsATypedConfigError) {
  const std::string file = path("foreign.journal");
  { (void)RoundJournal(file, core::WalSyncPolicy::kOff).open("job-theirs"); }
  RoundJournal journal(file, core::WalSyncPolicy::kOff);
  try {
    (void)journal.open("job-ours");
    FAIL() << "a foreign journal must not open";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("job-theirs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos);
  }
}

TEST_F(JournalTest, TornTailOnReopenKeepsThePrefix) {
  const std::string file = path("torn.journal");
  {
    RoundJournal journal(file, core::WalSyncPolicy::kOff);
    (void)journal.open("job-t");
    journal.round_open(1, {"site-1", "site-2"});
    journal.accepted("site-1", sample_update(1.0f));
    journal.accepted("site-2", sample_update(2.0f));
  }
  // Chop into the final frame: the crash-shaped failure. Replay keeps the
  // intact prefix and reports what it dropped.
  std::filesystem::resize_file(file, std::filesystem::file_size(file) - 3);
  const JournalReplay replay =
      RoundJournal(file, core::WalSyncPolicy::kOff).open("job-t");
  EXPECT_EQ(replay.open_round, 1);
  EXPECT_GT(replay.torn_bytes, 0u);  // the whole partial frame is dropped
  ASSERT_EQ(replay.events.size(), 2u);
  EXPECT_EQ(replay.events[1].site, "site-1");
}

TEST_F(JournalTest, BitRotSurfacesAsWalCorruption) {
  const std::string file = path("rot.journal");
  {
    RoundJournal journal(file, core::WalSyncPolicy::kOff);
    (void)journal.open("job-z");
    journal.round_open(0, {"site-1"});
    journal.accepted("site-1", sample_update(1.0f));
  }
  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[10] = static_cast<char>(bytes[10] ^ 0x10);  // inside the header frame
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  RoundJournal journal(file, core::WalSyncPolicy::kOff);
  EXPECT_THROW((void)journal.open("job-z"), core::WalCorruptionError);
}

// ---------------------------------------------------------------------------
// Mid-round server restart, one sealed frame at a time
// ---------------------------------------------------------------------------

/// Wire-level driver that can kill and restart its server against the same
/// persistor + journal files, exactly as a crashed coordinator would come
/// back: fresh process state, same durable state.
class RestartableFederation {
 public:
  RestartableFederation(ServerConfig config, std::int64_t num_sites,
                        std::string persist_path, std::string journal_path)
      : config_(std::move(config)),
        num_sites_(num_sites),
        registry_(Provisioner(config_.job_id, 17).provision_sites(num_sites)),
        persist_path_(std::move(persist_path)),
        journal_path_(std::move(journal_path)) {
    boot();
  }

  /// Tears the server down (losing all in-memory round state) and builds a
  /// successor from the checkpoint + journal files alone.
  void restart() {
    server_.reset();
    boot();
  }

  /// A successor booted from copies of the durable files in `dir` — what a
  /// coordinator restarted at this instant would rebuild — while this
  /// federation keeps running.
  std::unique_ptr<RestartableFederation> successor(const std::filesystem::path& dir) const {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string persist = (dir / "model.bin").string();
    const std::string journal = (dir / "model.bin.journal").string();
    for (const auto& [from, to] : {std::pair{persist_path_, persist},
                                   std::pair{journal_path_, journal}}) {
      if (std::filesystem::exists(from)) std::filesystem::copy_file(from, to);
    }
    return std::make_unique<RestartableFederation>(config_, num_sites_, persist,
                                                   journal);
  }

  FederatedServer& server() { return *server_; }

  std::vector<std::uint8_t> call(const std::string& site,
                                 const std::vector<std::uint8_t>& frame) {
    const Credential& cred = registry_.at(site);
    const auto response =
        connection_->call(seal(cred.name, cred.secret, seq_[site].next(), frame,
                               config_.job_id));
    const Envelope env = open(response, cred.secret);
    return {env.payload.begin(), env.payload.end()};
  }

  void register_site(const std::string& site) {
    const RegisterAck ack = decode_register_ack(
        call(site, pack(RegisterRequest{site, registry_.at(site).token})));
    ASSERT_TRUE(ack.accepted);
    sessions_[site] = ack.session_id;
  }

  std::vector<std::uint8_t> poll_frame(const std::string& site) {
    return call(site, pack(GetTaskRequest{sessions_.at(site)}));
  }
  TaskMessage poll(const std::string& site) { return decode_task(poll_frame(site)); }

  /// Submits `payload` as is; returns the packed ack.
  std::vector<std::uint8_t> submit_frame(const std::string& site, std::int64_t round,
                                         Dxo payload) {
    return call(site, pack(SubmitUpdateRequest{sessions_.at(site), round,
                                               std::move(payload)}));
  }
  SubmitAck submit(const std::string& site, std::int64_t round,
                   std::vector<float> weights) {
    Dxo payload(DxoKind::kWeights, dict_of(std::move(weights)));
    payload.set_meta_int(Dxo::kMetaNumSamples, 10);
    return decode_submit_ack(submit_frame(site, round, std::move(payload)));
  }

  std::vector<std::uint8_t> unmask_frame(const std::string& site,
                                         const UnmaskRequest& req, Dxo share) {
    return call(site, pack(UnmaskResponse{sessions_.at(site), req.round, req.wave,
                                          std::move(share)}));
  }

 private:
  void boot() {
    auto persistor = std::make_shared<ModelPersistor>(persist_path_);
    auto journal = std::make_shared<RoundJournal>(
        journal_path_, core::WalSyncPolicy::kEveryRound);
    std::unique_ptr<Aggregator> aggregator;
    if (config_.secure_agg.enabled) {
      aggregator = std::make_unique<MaskedFedAvgAggregator>();
    } else {
      aggregator = std::make_unique<FedAvgAggregator>(false);
    }
    server_ = std::make_unique<FederatedServer>(
        config_, registry_, dict_of({0.0f, 0.0f}), std::move(aggregator),
        persistor, persistor->load(), std::move(journal));
    connection_ = std::make_unique<InProcConnection>(server_->async_dispatcher());
    sessions_.clear();  // sessions are process state; they died with it
  }

  ServerConfig config_;
  std::int64_t num_sites_;
  std::map<std::string, Credential> registry_;
  std::string persist_path_;
  std::string journal_path_;
  std::unique_ptr<FederatedServer> server_;
  std::unique_ptr<InProcConnection> connection_;
  std::map<std::string, SequenceSource> seq_;
  std::map<std::string, std::string> sessions_;
};

TEST_F(JournalTest, RestartedServerResumesMidRoundWithIdempotentAcks) {
  ServerConfig config;
  config.job_id = "restart-job";
  config.num_rounds = 1;
  config.expected_clients = 3;
  config.min_clients = 2;
  RestartableFederation fed(config, 3, path("model.bin"),
                            path("model.bin.journal"));
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }
  EXPECT_TRUE(fed.submit("site-1", 0, {2.0f, 4.0f}).accepted);
  const SubmitAck nan_ack =
      fed.submit("site-2", 0, {std::nanf(""), 1.0f});
  EXPECT_FALSE(nan_ack.accepted);
  EXPECT_EQ(nan_ack.reason, RejectReason::kNonFinite);

  // Coordinator dies mid-round with one accept and one rejection buffered.
  fed.restart();
  for (const std::string site : {"site-1", "site-2", "site-3"}) {
    fed.register_site(site);
  }

  // The successor resumed *within* round 0: resolved sites are answered
  // from replayed state — site-1's resend maps to the duplicate-contribution
  // success, site-2's resend gets the identical typed rejection — and
  // neither is handed the train task again.
  EXPECT_EQ(fed.poll("site-1").task, TaskKind::kNone);
  EXPECT_EQ(fed.poll("site-2").task, TaskKind::kNone);
  EXPECT_EQ(fed.poll("site-3").task, TaskKind::kTrain);
  const SubmitAck dup = fed.submit("site-1", 0, {2.0f, 4.0f});
  EXPECT_FALSE(dup.accepted);
  EXPECT_EQ(dup.reason, RejectReason::kDuplicate);
  EXPECT_EQ(dup.message, kDuplicateContribution);
  const SubmitAck again = fed.submit("site-2", 0, {std::nanf(""), 1.0f});
  EXPECT_FALSE(again.accepted);
  EXPECT_EQ(again.reason, RejectReason::kNonFinite);
  EXPECT_EQ(again.message, nan_ack.message);

  // site-3's contribution completes the round: the published mean is over
  // the pre-crash site-1 update and the post-crash site-3 one.
  EXPECT_TRUE(fed.submit("site-3", 0, {6.0f, 12.0f}).accepted);
  ASSERT_TRUE(fed.server().wait_until_finished(10000));
  EXPECT_TRUE(bit_equal(fed.server().global_model(), dict_of({4.0f, 8.0f})));
  const auto history = fed.server().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].num_contributions, 2);
  EXPECT_EQ(history[0].rejected_updates, 1);
  // The committed round compacted the journal back to its header.
  const auto events = RoundJournal::read(path("model.bin.journal"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
}

TEST_F(JournalTest, DoubleRestartReplaysTheSameJournalAgain) {
  // The journal is only compacted at the commit barrier — a server that
  // replays, then dies again before the round closes, leaves the journal
  // intact for the next incarnation (crash-during-replay is exercised with
  // a real SIGKILL in crash_recovery_test.cpp).
  ServerConfig config;
  config.job_id = "double-restart";
  config.num_rounds = 1;
  config.expected_clients = 2;
  config.min_clients = 2;
  RestartableFederation fed(config, 2, path("model.bin"),
                            path("model.bin.journal"));
  for (const std::string site : {"site-1", "site-2"}) fed.register_site(site);
  EXPECT_TRUE(fed.submit("site-1", 0, {1.0f, 3.0f}).accepted);

  fed.restart();  // replays {accept site-1}, dies before the round closes
  fed.restart();  // replays the very same journal again
  for (const std::string site : {"site-1", "site-2"}) fed.register_site(site);
  EXPECT_EQ(fed.submit("site-1", 0, {1.0f, 3.0f}).reason,
            RejectReason::kDuplicate);
  EXPECT_TRUE(fed.submit("site-2", 0, {3.0f, 5.0f}).accepted);
  ASSERT_TRUE(fed.server().wait_until_finished(10000));
  EXPECT_TRUE(bit_equal(fed.server().global_model(), dict_of({2.0f, 4.0f})));
}

// ---------------------------------------------------------------------------
// Replay equivalence: restarting after any journaled event is invisible
// ---------------------------------------------------------------------------

const std::vector<std::string> kSites = {"site-1", "site-2", "site-3", "site-4"};

/// The counters journaled events move. Absent and zero are the same.
std::map<std::string, std::int64_t> journaled_counters(
    const FederatedServer& server,
    const std::map<std::string, std::int64_t>& baseline = {}) {
  const core::MetricSnapshot snap = server.metrics_snapshot();
  std::map<std::string, std::int64_t> all =
      snap.counters_with_prefix(metric_names::kRejectionPrefix);
  for (const char* name :
       {metric_names::kServerContribAccepted, metric_names::kServerContribRejected,
        metric_names::kServerUnmaskShares, metric_names::kServerRecoveryRounds,
        metric_names::kServerRecoveryDemotions}) {
    const auto it = snap.counters.find(name);
    if (it != snap.counters.end()) all[name] = it->second;
  }
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : all) {
    const auto base = baseline.find(name);
    const std::int64_t delta = value - (base == baseline.end() ? 0 : base->second);
    if (delta != 0) out[name] = delta;
  }
  return out;
}

std::map<std::string, std::tuple<std::int64_t, std::int64_t, bool, std::int64_t,
                                 std::int64_t>>
standings(const FederatedServer& server) {
  std::map<std::string, std::tuple<std::int64_t, std::int64_t, bool, std::int64_t,
                                   std::int64_t>>
      out;
  for (const auto& [site, st] : server.reputation()) {
    out[site] = {st.strikes, st.clean_streak, st.quarantined, st.total_rejections,
                 st.times_quarantined};
  }
  return out;
}

/// A frame a resolved site may resend; answered from round state without
/// changing it, so live and successor must answer byte-identically.
using Resend = std::function<std::vector<std::uint8_t>(RestartableFederation&)>;

/// Boots a successor from `live`'s durable files and checks it against
/// `live`: counters since the round opened (`baseline`), liveness and
/// reputation state, every site's poll answer and every resend's ack.
void expect_successor_matches(const std::string& after, RestartableFederation& live,
                              const std::filesystem::path& dir,
                              const std::map<std::string, std::int64_t>& baseline,
                              const std::vector<Resend>& resends) {
  SCOPED_TRACE("successor booted after: " + after);
  const auto next = live.successor(dir);
  FederatedServer& restarted = next->server();
  EXPECT_EQ(journaled_counters(restarted), journaled_counters(live.server(), baseline));
  // Before any traffic: a frame from an evicted site re-admits it.
  EXPECT_EQ(restarted.evicted_sites(), live.server().evicted_sites());
  EXPECT_EQ(restarted.quarantined_sites(), live.server().quarantined_sites());
  EXPECT_EQ(standings(restarted), standings(live.server()));
  for (const std::string& site : kSites) next->register_site(site);
  for (const std::string& site : kSites) {
    EXPECT_EQ(next->poll_frame(site), live.poll_frame(site)) << site;
  }
  for (std::size_t i = 0; i < resends.size(); ++i) {
    EXPECT_EQ(resends[i](*next), resends[i](live)) << "resend " << i;
  }
}

Dxo update_of(std::vector<float> weights) {
  Dxo payload(DxoKind::kWeights, dict_of(std::move(weights)));
  payload.set_meta_int(Dxo::kMetaNumSamples, 10);
  return payload;
}

Resend resubmit(const std::string& site, std::int64_t round, Dxo payload) {
  return [site, round, payload](RestartableFederation& fed) {
    return fed.submit_frame(site, round, payload);
  };
}

TEST_F(JournalTest, SuccessorAfterEveryPlainRoundEventMatchesTheLiveServer) {
  ServerConfig config;
  config.job_id = "replay-plain";
  config.num_rounds = 3;
  config.expected_clients = 4;
  config.min_clients = 3;  // keeps round 1 open through the eviction
  config.liveness_timeout_ms = 1000;
  config.reputation.quarantine_after = 1;
  RestartableFederation live(config, 4, path("plain.bin"), path("plain.bin.journal"));
  for (const std::string& site : kSites) live.register_site(site);
  // Round 0, committed to the checkpoint: site-3 is rejected and so
  // quarantined; the other three close the round.
  EXPECT_FALSE(live.submit("site-3", 0, {std::nanf(""), 1.0f}).accepted);
  for (const char* site : {"site-1", "site-2", "site-4"}) {
    EXPECT_TRUE(live.submit(site, 0, {1.0f, 1.0f}).accepted) << site;
  }
  ASSERT_EQ(live.server().current_round(), 1);
  const auto baseline = journaled_counters(live.server());
  const auto dir = dir_ / "successor";
  std::vector<Resend> resends;

  expect_successor_matches("round open", live, dir, baseline, resends);

  const Dxo accepted = update_of({2.0f, 2.0f});
  EXPECT_TRUE(decode_submit_ack(live.submit_frame("site-1", 1, accepted)).accepted);
  resends.push_back(resubmit("site-1", 1, accepted));
  expect_successor_matches("accept", live, dir, baseline, resends);

  const Dxo poisoned = update_of({std::nanf(""), 2.0f});
  EXPECT_EQ(decode_submit_ack(live.submit_frame("site-2", 1, poisoned)).reason,
            RejectReason::kNonFinite);
  resends.push_back(resubmit("site-2", 1, poisoned));
  expect_successor_matches("reject", live, dir, baseline, resends);

  const Dxo scored = update_of({3.0f, 3.0f});
  EXPECT_EQ(decode_submit_ack(live.submit_frame("site-3", 1, scored)).reason,
            RejectReason::kQuarantined);
  resends.push_back(resubmit("site-3", 1, scored));
  expect_successor_matches("quarantine score", live, dir, baseline, resends);

  // site-4 stays silent past the liveness timeout; the ticker evicts it.
  for (int i = 0; i < 1000 && live.server().evicted_sites().empty(); ++i) {
    core::Backoff::sleep_ms(10);
  }
  ASSERT_EQ(live.server().evicted_sites(), std::vector<std::string>{"site-4"});
  expect_successor_matches("eviction", live, dir, baseline, resends);
}

TEST_F(JournalTest, SuccessorAfterEveryMaskedRoundEventMatchesTheLiveServer) {
  ServerConfig config;
  config.job_id = "replay-masked";
  config.num_rounds = 1;
  config.expected_clients = 4;
  config.min_clients = 1;  // one survivor may finish the round
  config.secure_agg.enabled = true;
  config.secure_agg.recovery_deadline_ms = 1000;
  RestartableFederation live(config, 4, path("masked.bin"),
                             path("masked.bin.journal"));
  std::map<std::string, std::shared_ptr<SecureAggMaskFilter>> maskers;
  for (const std::string& site : kSites) {
    maskers[site] = make_secure_agg_mask_filter(config.job_id, 7, site, kSites);
    live.register_site(site);
  }
  const auto dir = dir_ / "successor";
  std::vector<Resend> resends;

  // site-4's update has the wrong shape: rejected, so the masked round
  // closes with it missing and freezes in mask recovery.
  const Dxo misshapen = update_of({1.0f, 1.0f, 1.0f});
  EXPECT_EQ(decode_submit_ack(live.submit_frame("site-4", 0, misshapen)).reason,
            RejectReason::kSchemaMismatch);
  resends.push_back(resubmit("site-4", 0, misshapen));
  expect_successor_matches("reject", live, dir, {}, resends);
  for (const char* site : {"site-1", "site-2", "site-3"}) {
    Dxo masked = update_of({1.0f, 2.0f});
    FLContext ctx;
    ctx.current_round = 0;
    maskers.at(site)->process(masked, ctx);
    EXPECT_TRUE(decode_submit_ack(live.submit_frame(site, 0, masked)).accepted);
    resends.push_back(resubmit(site, 0, masked));
    // site-3's accept closes the round and begins mask recovery.
    expect_successor_matches(std::string("accept ") + site, live, dir, {}, resends);
  }
  const UnmaskRequest wave0 = decode_unmask_request(live.poll_frame("site-1"));
  ASSERT_EQ(wave0.dropped, std::vector<std::string>{"site-4"});

  const Dxo share = maskers.at("site-1")->unmask_share(wave0.dropped, wave0.round);
  EXPECT_TRUE(decode_submit_ack(live.unmask_frame("site-1", wave0, share)).accepted);
  resends.push_back([wave0, share](RestartableFederation& fed) {
    return fed.unmask_frame("site-1", wave0, share);
  });
  expect_successor_matches("share", live, dir, {}, resends);

  // site-2 and site-3 never answer: the wave deadline demotes them and
  // site-1 is asked again against the enlarged dropped set. Their accepted
  // uploads are revoked, so their resends would hit the frozen round and
  // move the rejection counters: drop them.
  UnmaskRequest wave1;
  for (int i = 0; i < 1000 && wave1.wave != 1; ++i) {
    core::Backoff::sleep_ms(10);
    const auto frame = live.poll_frame("site-1");
    if (peek_type(frame) == MsgType::kUnmaskRequest) {
      wave1 = decode_unmask_request(frame);
    }
  }
  ASSERT_EQ(wave1.wave, 1);
  EXPECT_EQ(wave1.dropped, (std::vector<std::string>{"site-2", "site-3", "site-4"}));
  resends.erase(resends.begin() + 2, resends.begin() + 4);
  expect_successor_matches("demotion wave", live, dir, {}, resends);
}

// ---------------------------------------------------------------------------
// Simulator-level reconciliation edges (checkpoint vs journal)
// ---------------------------------------------------------------------------

class ConstLearner : public Learner {
 public:
  ConstLearner(std::string site, float value)
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

SimulatorRunner make_runner(const SimulatorConfig& config) {
  return SimulatorRunner(
      config, dict_of({0.0f, 0.0f, 0.0f, 0.0f}),
      std::make_unique<FedAvgAggregator>(false),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<ConstLearner>(name,
                                              0.5f * static_cast<float>(i));
      });
}

SimulatorConfig sim_config(const std::string& persist_path) {
  SimulatorConfig config;
  config.job_id = "journal-sim";
  config.num_clients = 4;
  config.num_rounds = 3;
  config.persist_path = persist_path;
  return config;
}

TEST_F(JournalTest, JournaledRunMatchesJournalFreeRunBitForBit) {
  SimulatorConfig plain = sim_config(path("plain.bin"));
  const SimulationResult reference = make_runner(plain).run();
  ASSERT_FALSE(reference.aborted);

  SimulatorConfig journaled = sim_config(path("journaled.bin"));
  journaled.journal = true;
  const SimulationResult durable = make_runner(journaled).run();
  ASSERT_FALSE(durable.aborted);
  EXPECT_TRUE(bit_equal(reference.final_model, durable.final_model));
  // Every round committed: the derived journal is compacted to its header.
  const auto events = RoundJournal::read(path("journaled.bin.journal"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
  EXPECT_EQ(events[0].job_id, "journal-sim");
}

TEST_F(JournalTest, StaleJournalIsDiscardedOnResume) {
  // Complete a run, then plant a journal whose open round the checkpoint
  // already owns (the crash-after-checkpoint-before-commit window). The
  // resumed server must discard it with a warning, not replay it.
  SimulatorConfig config = sim_config(path("stale.bin"));
  const SimulationResult done = make_runner(config).run();
  ASSERT_FALSE(done.aborted);
  {
    RoundJournal journal(path("stale.bin.journal"),
                         core::WalSyncPolicy::kOff);
    (void)journal.open("journal-sim");
    journal.round_open(2, {"site-1", "site-2", "site-3", "site-4"});
    journal.accepted("site-1", sample_update(9.0f));
  }
  config.resume = true;
  config.journal = true;
  const SimulationResult resumed = make_runner(config).run();
  ASSERT_FALSE(resumed.aborted);
  EXPECT_EQ(resumed.resumed_from_round, 2);
  EXPECT_EQ(resumed.history.size(), 3u);
  EXPECT_TRUE(bit_equal(done.final_model, resumed.final_model));
  const auto events = RoundJournal::read(path("stale.bin.journal"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kJobHeader);
}

TEST_F(JournalTest, JournalWithoutItsCheckpointIsDiscarded) {
  // The journal names round 5 but the checkpoint is gone (fresh start at
  // round 0): the mid-round state is unusable and must be dropped, and the
  // run must complete exactly like a journal-free fresh run.
  {
    RoundJournal journal(path("orphan.bin.journal"),
                         core::WalSyncPolicy::kOff);
    (void)journal.open("journal-sim");
    journal.round_open(5, {"site-1", "site-2", "site-3", "site-4"});
    journal.accepted("site-2", sample_update(7.0f));
  }
  SimulatorConfig config = sim_config(path("orphan.bin"));
  config.journal = true;
  const SimulationResult result = make_runner(config).run();
  ASSERT_FALSE(result.aborted);
  EXPECT_EQ(result.history.size(), 3u);

  const SimulationResult reference = make_runner(sim_config(path("ref.bin"))).run();
  EXPECT_TRUE(bit_equal(result.final_model, reference.final_model));
}

TEST_F(JournalTest, ForeignJobJournalRejectsServerConstruction) {
  {
    RoundJournal journal(path("foreign.bin.journal"),
                         core::WalSyncPolicy::kOff);
    (void)journal.open("somebody-elses-job");
  }
  SimulatorConfig config = sim_config(path("foreign.bin"));
  config.journal = true;
  EXPECT_THROW(make_runner(config), ConfigError);
}

TEST_F(JournalTest, JournalWithNoDerivablePathRejectsConfig) {
  SimulatorConfig config;
  config.job_id = "journal-sim";
  config.journal = true;  // neither journal_path nor persist_path
  EXPECT_THROW(make_runner(config), ConfigError);
}

}  // namespace
}  // namespace cppflare::flare
