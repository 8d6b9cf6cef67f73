#!/usr/bin/env bash
# Code-size report for src/ and each src/<module>: physical lines and code
# lines of the C++ sources (*.h, *.hpp, *.cpp, *.cc). A code line is one
# that is neither blank nor comment-only: `//` lines and the lines of a
# `/* ... */` block do not count, a line with code before a trailing comment
# does. Deleting comments or blank lines therefore leaves the code count
# unchanged; reformatting can still move it. A "/*" inside a string literal
# is taken for a comment opener.
#
# Informational: prints the table and exits 0.
#
# Usage: scripts/loc.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "${SCRIPT_DIR}")"
cd "${REPO_ROOT}"

# Prints "<files> <lines> <code lines>" for the C++ sources under $1.
measure() {
  find "$1" -type f \( -name '*.h' -o -name '*.hpp' -o -name '*.cpp' -o -name '*.cc' \) \
      -exec awk '
    FNR == 1 { files++; in_block = 0 }
    {
      lines++
      line = $0
      sub(/^[ \t]+/, "", line)
      if (in_block) {
        end = index(line, "*/")
        if (end == 0) next
        in_block = 0
        line = substr(line, end + 2)
        sub(/^[ \t]+/, "", line)
      }
      while (substr(line, 1, 2) == "/*") {
        end = index(substr(line, 3), "*/")
        if (end == 0) { in_block = 1; next }
        line = substr(line, end + 4)
        sub(/^[ \t]+/, "", line)
      }
      sub(/[ \t\r]+$/, "", line)
      if (line == "" || substr(line, 1, 2) == "//") next
      code++
      # A block comment opened after code and left open swallows the
      # following lines.
      while ((start = index(line, "/*")) > 0) {
        line = substr(line, start + 2)
        end = index(line, "*/")
        if (end == 0) { in_block = 1; break }
        line = substr(line, end + 2)
      }
    }
    END { print files + 0, lines + 0, code + 0 }' {} + |
    awk '{ f += $1; l += $2; c += $3 } END { print f + 0, l + 0, c + 0 }'
}

printf '%-14s %6s %8s %8s\n' "path" "files" "lines" "code"
for dir in src src/*/; do
  dir="${dir%/}"
  read -r files lines code < <(measure "${dir}")
  printf '%-14s %6d %8d %8d\n' "${dir}" "${files}" "${lines}" "${code}"
done
