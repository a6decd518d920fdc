#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every `crates/<crate>/src/**/*.rs`,
# the lines before the file's first column-0 `#[cfg(test)]` (the whole
# file when it has none; an indented `#[cfg(test)]` on one item inside
# non-test code does not end the count). Prints one `<crate> <lines>` row
# per crate and a total, and asserts nothing.
#
# With a git revision REV it prints `<crate> <lines> <lines at REV>
# <delta>` instead, reading REV through `git archive` into a temporary
# directory (removed on exit); it writes nothing into the repo. A crate
# missing on one side counts 0 there.
#
# Usage: scripts/nontest-lines.sh [REV]   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

# `<crate> <lines>` for every crate under $1/crates.
count() {
  for dir in "$1"/crates/*/; do
    [ -d "$dir/src" ] || continue
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
      xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    echo "$(basename "$dir") $lines"
  done
}

if [ $# -eq 0 ]; then
  count . | awk '{ printf "%-12s %6d\n", $1, $2; t += $2 }
    END { printf "%-12s %6d\n", "total", t }'
  exit 0
fi

rev=$1
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$rev" crates | tar -x -C "$old"
{ count . | sed 's/^/new /'; count "$old" | sed 's/^/old /'; } |
  awk -v rev="$rev" '
    { seen[$2] = 1; n[$1, $2] = $3 }
    END {
      printf "%-12s %6s %10s %7s\n", "crate", "lines", substr(rev, 1, 10), "delta"
      m = 0
      for (c in seen) names[++m] = c
      for (i = 2; i <= m; i++)  # insertion sort: awk has no portable sort
        for (j = i; j > 1 && names[j - 1] > names[j]; j--) {
          t = names[j]; names[j] = names[j - 1]; names[j - 1] = t
        }
      for (i = 1; i <= m; i++) {
        c = names[i]; a = n["new", c] + 0; b = n["old", c] + 0
        printf "%-12s %6d %10d %+7d\n", c, a, b, a - b
        ta += a; tb += b
      }
      printf "%-12s %6d %10d %+7d\n", "total", ta, tb, ta - tb
    }'
