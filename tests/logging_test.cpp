// The LOG(level) macro picks up the translation unit's component name.
#define CPPFLARE_LOG_COMPONENT "UnitComponent"

#include "core/logging.h"

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

namespace cppflare::core {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LogConfig::instance().set_sink(&out_);
    LogConfig::instance().set_threshold(LogLevel::kDebug);
  }
  void TearDown() override {
    LogConfig::instance().set_sink(nullptr);
    LogConfig::instance().set_threshold(LogLevel::kInfo);
  }
  std::ostringstream out_;
};

TEST_F(LoggingTest, NvflareStyleFormat) {
  LOG_AS("CiBertLearner", info).msg("Local epoch site-7: 1/10");
  // "2023-04-07 06:33:33,911 - CiBertLearner - INFO: Local epoch site-7: 1/10"
  const std::regex pattern(
      R"(^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3} - CiBertLearner - INFO: Local epoch site-7: 1/10\n$)");
  EXPECT_TRUE(std::regex_match(out_.str(), pattern)) << out_.str();
}

TEST_F(LoggingTest, ThresholdSuppressesLowerLevels) {
  LogConfig::instance().set_threshold(LogLevel::kWarn);
  LOG_AS("X", debug).msg("d");
  LOG_AS("X", info).msg("i");
  EXPECT_TRUE(out_.str().empty());
  LOG_AS("X", warn).msg("w");
  LOG_AS("X", error).msg("e");
  EXPECT_NE(out_.str().find("WARN: w"), std::string::npos);
  EXPECT_NE(out_.str().find("ERROR: e"), std::string::npos);
}

TEST_F(LoggingTest, OffSilencesEverything) {
  LogConfig::instance().set_threshold(LogLevel::kOff);
  LOG_AS("X", error).msg("nope");
  EXPECT_TRUE(out_.str().empty());
}

TEST_F(LoggingTest, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(log_level_name(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST_F(LoggingTest, TimestampShape) {
  const std::string ts = timestamp_now();
  const std::regex pattern(R"(^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3}$)");
  EXPECT_TRUE(std::regex_match(ts, pattern)) << ts;
}

TEST_F(LoggingTest, MultipleLinesAppend) {
  LOG_AS("A", info).msg("one");
  LOG_AS("A", info).msg("two");
  const std::string s = out_.str();
  EXPECT_NE(s.find("one\n"), std::string::npos);
  EXPECT_NE(s.find("two\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured event API (LOG / LOG_AS / LogEvent)
// ---------------------------------------------------------------------------

TEST_F(LoggingTest, StructuredEventKeepsNvflareLinePrefix) {
  LOG(info).msg("Round 3 started.").kv("round", 3).kv("site", "site-1");
  const std::regex pattern(
      R"(^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3} - UnitComponent - INFO: Round 3 started\. round=3 site=site-1\n$)");
  EXPECT_TRUE(std::regex_match(out_.str(), pattern)) << out_.str();
}

TEST_F(LoggingTest, LogAsNamesComponentInline) {
  LOG_AS("ClientManager", warn).msg("bad token").kv("site", "site-9");
  EXPECT_NE(out_.str().find(" - ClientManager - WARN: bad token site=site-9\n"),
            std::string::npos)
      << out_.str();
}

TEST_F(LoggingTest, KvValueTypes) {
  LOG(info)
      .msg("m")
      .kv("i", std::int64_t{-42})
      .kv("u", 7u)
      .kv("d", 0.5)
      .kv("b_true", true)
      .kv("b_false", false)
      .kv("s", std::string("plain"));
  EXPECT_NE(out_.str().find(
                "INFO: m i=-42 u=7 d=0.5 b_true=true b_false=false s=plain"),
            std::string::npos)
      << out_.str();
}

TEST_F(LoggingTest, KvQuotesAwkwardValues) {
  LOG(info)
      .msg("m")
      .kv("spaced", "two words")
      .kv("empty", "")
      .kv("quoted", "say \"hi\"")
      .kv("eq", "a=b");
  // Values with spaces/quotes/equals (or empty) are quoted with \-escapes so
  // the line still splits unambiguously on ` key=`.
  EXPECT_NE(out_.str().find(
                "m spaced=\"two words\" empty=\"\" quoted=\"say \\\"hi\\\"\" "
                "eq=\"a=b\""),
            std::string::npos)
      << out_.str();
}

TEST_F(LoggingTest, KvOnlyEventHasNoLeadingSpace) {
  LOG(info).kv("round", 1);
  EXPECT_NE(out_.str().find("INFO: round=1\n"), std::string::npos) << out_.str();
}

TEST_F(LoggingTest, InertBelowThresholdFormatsNothing) {
  LogConfig::instance().set_threshold(LogLevel::kWarn);
  LOG(info).msg("invisible").kv("round", 1);
  LOG(debug).msg("also invisible");
  EXPECT_TRUE(out_.str().empty());
  LogConfig::instance().set_threshold(LogLevel::kOff);
  LOG(error).msg("off silences errors too");
  EXPECT_TRUE(out_.str().empty());
}

}  // namespace
}  // namespace cppflare::core
