#include "flare/persistor.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/bytes.h"
#include "core/error.h"

namespace cppflare::flare {
namespace {

class PersistorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cppflare_persistor_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

nn::StateDict sample_dict() {
  nn::StateDict d;
  d.insert("layer.w", {{2, 2}, {1, 2, 3, 4}});
  d.insert("layer.b", {{2}, {-1, -2}});
  return d;
}

TEST_F(PersistorTest, SaveLoadRoundTrip) {
  ModelPersistor p(path("model.bin"));
  p.save({"job-7", 3, sample_dict(), {}, {}});
  const auto loaded = p.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->job_id, "job-7");
  EXPECT_EQ(loaded->round, 3);
  EXPECT_EQ(loaded->model, sample_dict());
}

TEST_F(PersistorTest, MissingFileReturnsNullopt) {
  ModelPersistor p(path("absent.bin"));
  EXPECT_FALSE(p.load().has_value());
}

TEST_F(PersistorTest, OverwriteKeepsLatest) {
  ModelPersistor p(path("model.bin"));
  p.save({"job", 1, sample_dict(), {}, {}});
  nn::StateDict newer = sample_dict();
  newer.at("layer.w").values[0] = 99.0f;
  p.save({"job", 2, newer, {}, {}});
  const auto loaded = p.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 2);
  EXPECT_FLOAT_EQ(loaded->model.at("layer.w").values[0], 99.0f);
}

TEST_F(PersistorTest, NoTempFileLeftBehind) {
  ModelPersistor p(path("model.bin"));
  p.save({"job", 1, sample_dict(), {}, {}});
  EXPECT_FALSE(std::filesystem::exists(path("model.bin.tmp")));
  EXPECT_TRUE(std::filesystem::exists(path("model.bin")));
}

TEST_F(PersistorTest, CorruptMagicRejected) {
  const std::string file = path("bad.bin");
  {
    std::ofstream out(file, std::ios::binary);
    out << "garbage-not-a-checkpoint";
  }
  ModelPersistor p(file);
  EXPECT_THROW(p.load(), SerializationError);
}

TEST_F(PersistorTest, UnwritableDirectoryThrows) {
  ModelPersistor p("/nonexistent_dir_zzz/model.bin");
  EXPECT_THROW(p.save({"job", 0, sample_dict(), {}, {}}), Error);
}

TEST_F(PersistorTest, HistoryRoundTrip) {
  ModelPersistor p(path("model.bin"));
  RoundMetrics m0;
  m0.round = 0;
  m0.num_contributions = 3;
  m0.total_samples = 30;
  m0.train_loss = 0.5;
  m0.valid_acc = 0.75;
  m0.valid_loss = 0.6;
  RoundMetrics m1;
  m1.round = 1;
  m1.num_contributions = 2;
  m1.total_samples = 20;
  m1.late_contributions = 1;
  m1.evicted_sites = 1;
  m1.deadline_fired = true;
  p.save({"job-9", 1, sample_dict(), {m0, m1}, {}});
  const auto loaded = p.load();
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), 2u);
  EXPECT_EQ(loaded->history[0].num_contributions, 3);
  EXPECT_DOUBLE_EQ(loaded->history[0].valid_acc, 0.75);
  EXPECT_EQ(loaded->history[0].late_contributions, 0);
  EXPECT_FALSE(loaded->history[0].deadline_fired);
  EXPECT_EQ(loaded->history[1].round, 1);
  EXPECT_EQ(loaded->history[1].late_contributions, 1);
  EXPECT_EQ(loaded->history[1].evicted_sites, 1);
  EXPECT_TRUE(loaded->history[1].deadline_fired);
}

TEST_F(PersistorTest, PreV3CheckpointMagicsAreRejected) {
  // Only CPK3 loads: the pre-footer CPK1/CPK2 layouts are a typed error,
  // never a silently partial checkpoint.
  for (const std::uint32_t magic : {0x43504b31u /* CPK1 */, 0x43504b32u /* CPK2 */}) {
    const std::string file = path("old.bin");
    core::ByteWriter w;
    w.write_u32(magic);
    w.write_string("job-old");
    w.write_i64(4);
    sample_dict().serialize(w);
    w.write_u32(0);  // empty history
    {
      std::ofstream out(file, std::ios::binary);
      out.write(reinterpret_cast<const char*>(w.bytes().data()),
                static_cast<std::streamsize>(w.size()));
    }
    EXPECT_THROW((void)ModelPersistor(file).load(), SerializationError) << magic;
  }
}

TEST_F(PersistorTest, DefenseTelemetryAndReputationRoundTrip) {
  ModelPersistor p(path("v3.bin"));
  RoundMetrics m;
  m.round = 0;
  m.num_contributions = 7;
  m.rejected_updates = 1;
  m.quarantined_sites = 1;
  m.rejections_by_reason["non_finite"] = 1;
  m.rejections_by_reason["norm_outlier"] = 2;
  Checkpoint cp{"job-v3", 1, sample_dict(), {m}, {}};
  SiteStanding bad;
  bad.strikes = 2;
  bad.quarantined = true;
  bad.total_rejections = 2;
  bad.times_quarantined = 1;
  cp.reputation["site-8"] = bad;
  p.save(cp);
  const auto loaded = p.load();
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), 1u);
  EXPECT_EQ(loaded->history[0].rejected_updates, 1);
  EXPECT_EQ(loaded->history[0].quarantined_sites, 1);
  EXPECT_EQ(loaded->history[0].rejections_by_reason.at("non_finite"), 1);
  EXPECT_EQ(loaded->history[0].rejections_by_reason.at("norm_outlier"), 2);
  ASSERT_EQ(loaded->reputation.count("site-8"), 1u);
  EXPECT_TRUE(loaded->reputation.at("site-8").quarantined);
  EXPECT_EQ(loaded->reputation.at("site-8").strikes, 2);
  EXPECT_EQ(loaded->reputation.at("site-8").times_quarantined, 1);
}

TEST_F(PersistorTest, TruncatedCheckpointFailsIntegrityCheck) {
  const std::string file = path("model.bin");
  ModelPersistor p(file);
  p.save({"job", 1, sample_dict(), {}, {}});
  const auto size = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, size - 7);
  try {
    p.load();
    FAIL() << "truncated checkpoint must not load";
  } catch (const SerializationError& e) {
    // The error names the offending path so an operator can find the file.
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos);
  }
}

TEST_F(PersistorTest, TruncatedBelowFooterSizeFailsWithClearError) {
  const std::string file = path("model.bin");
  ModelPersistor p(file);
  p.save({"job", 1, sample_dict(), {}, {}});
  std::filesystem::resize_file(file, 10);  // magic survives, footer gone
  try {
    p.load();
    FAIL() << "footerless checkpoint must not load";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(PersistorTest, FlippedByteFailsIntegrityCheck) {
  const std::string file = path("model.bin");
  ModelPersistor p(file);
  p.save({"job", 1, sample_dict(), {}, {}});
  // Flip one bit in the middle of the body (past the magic, before the
  // footer): the SHA-256 footer must catch it.
  std::vector<char> bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    p.load();
    FAIL() << "corrupted checkpoint must not load";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("integrity check failed"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos);
  }
}

TEST_F(PersistorTest, EmptyModelRoundTrip) {
  ModelPersistor p(path("empty.bin"));
  p.save({"job", 0, nn::StateDict{}, {}, {}});
  const auto loaded = p.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->model.empty());
}

}  // namespace
}  // namespace cppflare::flare
