#!/usr/bin/env bash
# Fails if the `unsafe` keyword (`unsafe {`, `unsafe fn`, `unsafe impl`,
# `unsafe trait`, `unsafe extern`) appears in non-test code anywhere under
# `crates/` except `crates/verify/src/sha256.rs`, whose SHA-NI compression
# is the workspace's one unsafe item. Non-test code is every `.rs` file
# under `crates/*/src` and `crates/*/benches`, up to the file's first
# column-0 `#[cfg(test)]` (the same cut as `scripts/nontest-lines.sh`);
# `//` comments are ignored. Prints each offending line.
#
# Usage: scripts/unsafe-outside-sha.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src crates/*/benches -name '*.rs' ! -path crates/verify/src/sha256.rs -print0 |
  sort -z |
  xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting {
      code = $0
      sub(/\/\/.*/, "", code)
      if (code ~ /(^|[^A-Za-z0-9_])unsafe[ \t]*(\{|fn|impl|trait|extern|$)/) {
        print FILENAME ":" FNR ": " $0
        found = 1
      }
    }
    END { exit found }'
echo "no unsafe outside crates/verify/src/sha256.rs"
