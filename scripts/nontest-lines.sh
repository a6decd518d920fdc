#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every `crates/<crate>/src/**/*.rs`,
# the lines before the file's first column-0 `#[cfg(test)]` (the whole
# file when it has none; an indented `#[cfg(test)]` on one item inside
# non-test code does not end the count). Prints one `<crate> <lines>` row
# per crate and a total, and asserts nothing.
#
# Usage: scripts/nontest-lines.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  [ -d "$dir/src" ] || continue
  lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }')
  printf '%-12s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
