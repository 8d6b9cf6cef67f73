// cflint rule engine: scope-aware reimplementation of the repo lint rules
// R1-R7 plus the concurrency/determinism rules R9-R14 that a grep pipeline
// cannot express (R8 is retired; numbers stay stable). See scripts/lint.sh
// (thin wrapper) and DESIGN.md §12 for the rule catalog and rationale.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"

namespace cflint {

struct Finding {
  int rule = 0;
  std::string file;  // repo-relative, forward slashes
  int line = 0;
  int col = 0;
  std::string message;
};

/// One lexed source file, addressed by its repo-relative path ("src/...").
/// Rules scope themselves by path prefix/substring, so the path must be
/// normalized (forward slashes, no leading "./").
struct FileUnit {
  std::string path;
  LexResult lx;
};

/// Runs every rule over the file set. Two-pass: a cross-file pass first
/// collects the R11 nodiscard-returning function names, then each file is
/// checked independently. Exemptions (`R<n>-exempt:` comments, collected by
/// the lexer) are applied before findings are returned. Findings come back
/// sorted by (file, line, col, rule).
std::vector<Finding> run_rules(const std::vector<FileUnit>& files);

/// Fixed one-line rationale for a rule, for `--explain`-style output and
/// the self-test banner. Returns "" for unknown rule numbers.
const char* rule_summary(int rule);

}  // namespace cflint
