#include "selftest.h"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.h"
#include "rules.h"

namespace cflint {

namespace {

struct Case {
  const char* name;
  const char* path;     // virtual repo-relative path (drives rule scoping)
  const char* source;
  // Expected findings as (rule, line) pairs; empty = must be clean.
  std::vector<std::pair<int, int>> expect;
};

// Each violating fixture plants exactly the banned pattern; each clean
// fixture contains the same pattern *with* an `Rn-exempt:` annotation (or
// the sanctioned alternative), proving both the detection and the
// exemption path. Comment/string decoys prove the lexer does its job.
const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"R1 rand() call", "src/train/bad_rng.cpp",
       "// rand() in a comment is fine\n"
       "const char* s = \"rand()\";\n"
       "int f() { return std::rand() % 7; }\n"
       "int g() { srand(42); return 0; }\n",
       {{1, 3}, {1, 4}}},
      {"R1 member rand is not libc rand", "src/train/ok_rng.cpp",
       "int f(core::Rng& rng) { return rng.rand(); }\n"
       "int g(Other& o) { return o->rand(); }\n",
       {}},
      {"R1 exempt", "src/train/exempt_rng.cpp",
       "// R1-exempt: fixture proves the exemption path\n"
       "int f() { return std::rand(); }\n",
       {}},

      {"R2 naked new in flare", "src/flare/bad_own.cpp",
       "void f() { auto* p = new int(3); delete p; }\n",
       {{2, 1}, {2, 1}}},
      {"R2 deleted member + exempt", "src/flare/ok_own.cpp",
       "struct T { T(const T&) = delete; };\n"
       "// R2-exempt: arena handoff audited in PR 6\n"
       "void f() { auto* p = new int(3); delete p; }  // R2-exempt: ditto\n",
       {}},

      {"R3 iostream include", "src/flare/bad_io.cpp",
       "#include <iostream>\n",
       {{3, 1}}},
      {"R3 iostream allowed in sink", "src/core/logging.cpp",
       "#include <iostream>\n",
       {}},

      {"R4 guardless header", "src/nn/bad_hdr.h",
       "int f();\n",
       {{4, 1}}},
      {"R4 legacy guard", "src/nn/bad_guard.h",
       "#ifndef BAD_GUARD_H\n#define BAD_GUARD_H\n#pragma once\n#endif\n",
       {{4, 1}}},
      {"R4 pragma once clean", "src/nn/ok_hdr.h",
       "#pragma once\nint f();\n",
       {}},

      {"R5 raw thread", "src/flare/bad_thread.cpp",
       "void f() { std::thread t([] {}); t.join(); }\n",
       {{5, 1}}},
      {"R5 reactor event-loop thread sanctioned", "src/flare/reactor.cpp",
       "void EpollReactor::start() { reactor_thread_ = std::thread([this] { loop(); }); }\n",
       {}},
      {"R5 hardware_concurrency + exempt", "src/flare/ok_thread.cpp",
       "unsigned f() { return std::thread::hardware_concurrency(); }\n"
       "// R5-exempt: blocking I/O thread, joined in stop()\n"
       "void g() { std::thread t([] {}); t.join(); }\n",
       {}},

      {"R6 naked sleep", "src/flare/bad_sleep.cpp",
       "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
       {{6, 1}}},
      {"R6 backoff + exempt", "src/core/backoff.cpp",
       "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
       {}},
      {"R6 exempt line", "src/flare/ok_sleep.cpp",
       "// R6-exempt: harness pacing, not a retry loop\n"
       "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
       {}},

      {"R7 validator bypass", "src/flare/bad_accept.cpp",
       "void f(Aggregator& a, const Contribution& c) { a.accept(c); }\n",
       {{7, 1}}},
      {"R7 socket accept + validator.cpp", "src/flare/validator.cpp",
       "int f(int fd) { return ::accept(fd, nullptr, nullptr); }\n"
       "void g(Aggregator& a, const Contribution& c) { a.accept(c); }\n",
       {}},

      {"R9 unordered iteration", "src/flare/aggregator_ext.cpp",
       "#include <unordered_map>\n"
       "void f(const std::unordered_map<std::string, double>& weights) {\n"
       "  for (const auto& kv : weights) { use(kv); }\n"
       "  for (auto it = weights.begin(); it != weights.end(); ++it) use(*it);\n"
       "}\n",
       {{9, 3}, {9, 4}}},
      {"R9 membership only is fine", "src/flare/aggregator_ok.cpp",
       "#include <unordered_set>\n"
       "bool f(const std::unordered_set<std::string>& seen,\n"
       "       const std::string& k) {\n"
       "  return seen.count(k) > 0 || seen.find(k) != seen.end();\n"
       "}\n",
       {}},
      {"R9 out of scope path", "src/models/free_iter.cpp",
       "void f(const std::unordered_map<int, int>& m) {\n"
       "  for (const auto& kv : m) use(kv);\n"
       "}\n",
       {}},
      {"R9 exempt", "src/flare/persistor_ext.cpp",
       "void f(const std::unordered_map<int, int>& m) {\n"
       "  // R9-exempt: keys copied and sorted below before serialization\n"
       "  for (const auto& kv : m) collect(kv);\n"
       "}\n",
       {}},

      {"R10 blocking under lock", "src/flare/bad_hold.cpp",
       "void f(core::Mutex& mu, Conn& c, Frame& fr) {\n"
       "  core::MutexLock lock(mu);\n"
       "  c.write_frame(fr);\n"
       "  c->call(fr);\n"
       "}\n",
       {{10, 3}, {10, 4}}},
      {"R10 unlock first", "src/flare/ok_hold.cpp",
       "void f(core::Mutex& mu, Conn& c, Frame& fr) {\n"
       "  core::MutexLock lock(mu);\n"
       "  lock.unlock();\n"
       "  c.write_frame(fr);\n"
       "  lock.lock();\n"
       "}\n"
       "void g(std::mutex& mu, Conn& c, Frame& fr) {\n"
       "  { std::lock_guard<std::mutex> lk(mu); prep(); }\n"
       "  c.write_frame(fr);\n"
       "}\n",
       {}},
      {"R10 exempt", "src/flare/exempt_hold.cpp",
       "void f(core::Mutex& mu, Conn& c, Frame& fr) {\n"
       "  core::MutexLock lock(mu);\n"
       "  // R10-exempt: handshake frame, bounded by the connect timeout\n"
       "  c.write_frame(fr);\n"
       "}\n",
       {}},
      {"R10 reactor nonblocking sockets sanctioned", "src/flare/reactor.cpp",
       "void EpollReactor::flush(Conn& c) {\n"
       "  core::MutexLock lock(mu_);\n"
       "  ::send(c.fd, c.buf.data(), c.buf.size(), 0);\n"
       "  ::recv(c.fd, c.in.data(), c.in.size(), 0);\n"
       "}\n",
       {}},
      {"R10 reactor sleeps and RPCs still flagged", "src/flare/reactor.cpp",
       "void EpollReactor::bad(Conn& c) {\n"
       "  core::MutexLock lock(mu_);\n"
       "  core::Backoff::sleep_ms(5);\n"
       "  c.conn->call(frame);\n"
       "}\n",
       {{10, 3}, {10, 4}}},

      {"R11 missing nodiscard + discard", "src/flare/bad_status.cpp",
       "struct SendStatus { bool ok; };\n"
       "SendStatus send_all(Conn& c);\n"
       "void f(Conn& c) { send_all(c); }\n"
       "void g(Conn& c) { c.send_all(); }\n",
       {{11, 1}, {11, 3}, {11, 4}}},
      {"R11 clean", "src/flare/ok_status.cpp",
       "struct [[nodiscard]] SendStatus { bool ok; };\n"
       "SendStatus send_all(Conn& c);\n"
       "SendStatus f(Conn& c) { return send_all(c); }\n"
       "void g(Conn& c) { (void)send_all(c); }\n"
       "void h(Conn& c) { auto s = send_all(c); use(s); }\n",
       {}},
      {"R11 exempt", "src/flare/exempt_status.cpp",
       "// R11-exempt: forward declaration pulled from a vendored header\n"
       "struct SendStatus { bool ok; };\n"
       "SendStatus send_all(Conn& c);\n"
       "void f(Conn& c) {\n"
       "  // R11-exempt: best-effort farewell on shutdown path\n"
       "  send_all(c);\n"
       "}\n",
       {}},

      {"R12 dealer escape", "src/flare/simulator_bad.cpp",
       "// SecureAggregationDealer in a comment is fine\n"
       "const char* s = \"pair_key\";\n"
       "void f() { SecureAggregationDealer dealer(\"job\", 7); }\n"
       "void g(Dealer& d) { auto k = d.pair_key(\"a\", \"b\"); }\n",
       {{12, 3}, {12, 4}}},
      {"R12 confined to secure_agg and provisioning", "src/flare/secure_agg.cpp",
       "void f() { SecureAggregationDealer dealer(\"job\", 7); }\n"
       "void g(SecureAggregationDealer& d) { auto k = d.pair_key(\"a\", \"b\"); }\n",
       {}},
      {"R12 provisioning allowed", "src/flare/provision.cpp",
       "void f(SecureAggregationDealer& d) { auto k = d.pair_key(\"a\", \"b\"); }\n",
       {}},
      {"R12 exempt", "src/flare/exempt_dealer.cpp",
       "// R12-exempt: fixture proves the exemption path\n"
       "void f() { SecureAggregationDealer dealer(\"job\", 7); }\n",
       {}},

      {"R13 raw writes in journal", "src/flare/journal.cpp",
       "// ofstream in a comment is fine\n"
       "const char* s = \"fwrite(\";\n"
       "void f() { std::ofstream out(\"x.bin\", std::ios::binary); }\n"
       "void g(std::ostream& os, const char* p, long n) { os.write(p, n); }\n"
       "void h(const char* p) { FILE* fp = fopen(p, \"wb\"); fwrite(p, 1, 1, fp); }\n",
       {{13, 3}, {13, 4}, {13, 5}, {13, 5}, {13, 5}}},
      {"R13 reads and durable-io stay legal", "src/flare/persistor.cpp",
       "void f(const std::string& p) { std::ifstream in(p, std::ios::binary); }\n"
       "void g(const std::string& p, const std::vector<std::uint8_t>& b) {\n"
       "  core::durable_write(p, b);\n"
       "}\n"
       "void h(core::ByteWriter& w) { w.write_u32(7); }\n",
       {}},
      {"R13 out of scope path", "src/flare/observability.cpp",
       "void f() { std::ofstream out(\"trace.json\"); }\n",
       {}},
      {"R13 exempt", "src/flare/journal.h",
       "#pragma once\n"
       "// R13-exempt: fixture proves the exemption path\n"
       "void f() { std::ofstream out(\"x.bin\"); }\n",
       {}},

      {"R14 server constructed outside the registry", "src/flare/sim_srv.cpp",
       "// FederatedServer in a comment is fine\n"
       "void f(FederatedServer& s) { s.abort(\"x\"); }\n"
       "FederatedServer* g(JobRunner& jobs) { return &jobs.server(\"a\"); }\n"
       "void h() { auto s = std::make_unique<FederatedServer>(cfg, reg); }\n"
       "void i() { FederatedServer server(cfg, reg, model, agg); }\n",
       {{14, 4}, {14, 5}}},
      {"R14 registry sources allowed", "src/flare/jobs.cpp",
       "void f(Job& j) { j.server = std::make_unique<FederatedServer>(c, r); }\n",
       {}},
      {"R14 server's own sources allowed", "src/flare/server.cpp",
       "FederatedServer::FederatedServer(ServerConfig config) {}\n",
       {}},
      {"R14 exempt", "src/flare/exempt_srv.cpp",
       "// R14-exempt: fixture proves the exemption path\n"
       "void f() { FederatedServer server(cfg, reg, model, agg); }\n",
       {}},

      {"R15 non-cryptographic generator in a privacy filter", "src/flare/filters.cpp",
       "// core::Rng in a comment is fine\n"
       "const char* s = \"std::mt19937_64\";\n"
       "void f() { core::Rng rng(7); }\n"
       "void g() { std::mt19937_64 e(1); std::mt19937 m(2); }\n"
       "float h(E& e) { return std::normal_distribution<float>(0, 1)(e); }\n",
       {{15, 3}, {15, 4}, {15, 4}, {15, 5}}},
      {"R15 keyed stream and other units allowed", "src/flare/secure_agg.h",
       "#pragma once\n"
       "void f(const core::KeyedStream& s, std::uint32_t* w) { s.read(0, 16, w); }\n",
       {}},
      {"R15 out of scope path", "src/flare/poison.cpp",
       "void f() { core::Rng rng(7); std::uniform_int_distribution<int> d(0, 1); }\n",
       {}},
      {"R15 exempt", "src/flare/secure_agg.cpp",
       "// R15-exempt: fixture proves the exemption path\n"
       "void f() { core::Rng rng(7); }\n",
       {}},

      {"R16 serial per-element draw in a tensor op", "src/tensor/ops_elementwise.cpp",
       "// rng.bernoulli(p) in a comment is fine\n"
       "const char* s = \"std::mt19937_64\";\n"
       "void f(core::Rng& rng, float* m) { m[0] = rng.bernoulli(0.1) ? 0 : 1; }\n"
       "void g() { std::mt19937_64 e(1); std::mt19937 m(2); }\n"
       "float h(E& e) { return std::uniform_real_distribution<float>(0, 1)(e); }\n",
       {{16, 3}, {16, 4}, {16, 4}, {16, 5}}},
      {"R16 one generator word and a keyed stream allowed", "src/tensor/ops_nn.cpp",
       "std::uint64_t f(core::Rng& rng) { return rng.next_u64(); }\n"
       "void g(const core::KeyedStream& s, std::uint32_t* w) { s.read(0, 16, w); }\n",
       {}},
      {"R16 out of scope path", "src/tensor/tensor.cpp",
       "float f(core::Rng& rng) { return rng.bernoulli(0.5) ? 1.0f : 0.0f; }\n",
       {}},
      {"R16 exempt", "src/tensor/ops_shape.cpp",
       "// R16-exempt: fixture proves the exemption path\n"
       "bool f(core::Rng& rng) { return rng.bernoulli(0.5); }\n",
       {}},

      {"R17 entropy draw outside the nonce source", "src/flare/provision.cpp",
       "// std::random_device in a comment is fine\n"
       "const char* s = \"getrandom\";\n"
       "unsigned f() { std::random_device d; return d(); }\n"
       "long g(void* p) { return getrandom(p, 8, 0); }\n",
       {{17, 3}, {17, 4}}},
      {"R17 the nonce source may draw", "src/core/aead.cpp",
       "unsigned f() { std::random_device d; return d(); }\n",
       {}},
      {"R17 exempt", "src/core/rng.cpp",
       "// R17-exempt: fixture proves the exemption path\n"
       "unsigned f() { std::random_device d; return d(); }\n",
       {}},
  };
  return kCases;
}

}  // namespace

bool run_selftest() {
  int failed = 0;
  for (const Case& c : cases()) {
    // Every case lexes and runs alone, so fixtures cannot mask each other
    // — except R11 part (b), which needs the declaring file in the same
    // batch; each fixture is self-contained for that reason.
    std::vector<FileUnit> files;
    files.push_back({c.path, lex(c.source)});
    const std::vector<Finding> got = run_rules(files);

    std::multiset<std::pair<int, int>> expect(c.expect.begin(), c.expect.end());
    std::multiset<std::pair<int, int>> actual;
    for (const Finding& f : got) actual.insert({f.rule, f.line});

    if (actual == expect) {
      std::printf("PASS  %s\n", c.name);
      continue;
    }
    ++failed;
    std::printf("FAIL  %s\n", c.name);
    for (const Finding& f : got) {
      std::printf("      got: %s:%d:%d: [R%d] %s\n", f.file.c_str(), f.line,
                  f.col, f.rule, f.message.c_str());
    }
    for (const auto& [rule, line] : expect) {
      std::printf("      expected: [R%d] at line %d\n", rule, line);
    }
  }
  if (failed == 0) {
    std::fprintf(stderr, "cflint self-test: all %zu cases passed\n",
                 cases().size());
    return true;
  }
  std::fprintf(stderr, "cflint self-test: %d of %zu cases FAILED\n", failed,
               cases().size());
  return false;
}

}  // namespace cflint
