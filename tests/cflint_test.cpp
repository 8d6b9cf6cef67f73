// Drives the cflint binary (tools/cflint) over the committed fixture trees:
// every rule R1-R17 must fire at its planted violation, the exempt-annotated
// clean tree must come back spotless, and the hermetic --self-test must
// pass. CFLINT_BINARY and CFLINT_FIXTURES are injected by the build (see
// tests/CMakeLists.txt), so the test exercises the exact binary a plain
// `ctest` builds.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(CFLINT_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixtures(const char* tree) {
  return std::string(CFLINT_FIXTURES) + "/" + tree;
}

TEST(CflintTest, SelfTestPasses) {
  const RunResult r = run("--self-test");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("all"), std::string::npos) << r.output;
}

TEST(CflintTest, EveryRuleFiresOnViolationTree) {
  const RunResult r = run("--root " + fixtures("violations") + " -f json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const struct {
    const char* rule;
    const char* file;
  } expected[] = {
      {"\"R1\"", "rng_violation.cpp"},
      {"\"R2\"", "ownership_violation.cpp"},
      {"\"R3\"", "iostream_violation.cpp"},
      {"\"R4\"", "guard_violation.h"},
      {"\"R5\"", "thread_violation.cpp"},
      {"\"R6\"", "sleep_violation.cpp"},
      {"\"R7\"", "accept_violation.cpp"},
      {"\"R9\"", "aggregator_iteration_violation.cpp"},
      {"\"R10\"", "lock_hold_violation.cpp"},
      // The reactor scope rule sanctions only nonblocking socket syscalls;
      // a sleep under the reactor lock must still fire.
      {"\"R10\"", "reactor.cpp"},
      {"\"R11\"", "status_violation.cpp"},
      {"\"R12\"", "dealer_escape_violation.cpp"},
      // R13 is scoped by path, so its fixture must literally be named
      // src/flare/journal.cpp inside the tree.
      {"\"R13\"", "journal.cpp"},
      {"\"R14\"", "server_construction_violation.cpp"},
      // R15 is scoped by path too: the privacy filters' own sources.
      {"\"R15\"", "secure_agg.cpp"},
      // R16 covers src/tensor/ops_*.cpp only.
      {"\"R16\"", "ops_dropout.cpp"},
      {"\"R17\"", "entropy_violation.cpp"},
  };
  for (const auto& e : expected) {
    // The finding's rule and file land in the same JSON object; with one
    // planted violation file per rule, coarse containment is exact enough.
    EXPECT_NE(r.output.find(e.rule), std::string::npos)
        << "rule " << e.rule << " never fired\n" << r.output;
    EXPECT_NE(r.output.find(e.file), std::string::npos)
        << "no finding in " << e.file << "\n" << r.output;
  }
}

TEST(CflintTest, GccFormatIsFileLineCol) {
  const RunResult r = run("--root " + fixtures("violations"));
  EXPECT_EQ(r.exit_code, 1);
  // file:line:col: error: [Rn] message
  EXPECT_NE(r.output.find(":1:1: error: [R4] header missing #pragma once"),
            std::string::npos)
      << r.output;
}

TEST(CflintTest, ExemptAnnotatedTreeIsClean) {
  const RunResult r = run("--root " + fixtures("clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CflintTest, RepoIsClean) {
  const RunResult r = run("--root " + std::string(CFLINT_REPO_ROOT));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
