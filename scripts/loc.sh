#!/usr/bin/env bash
# Production lines of Rust per crate.
#
# Counting rule: every `*.rs` under `crates/<crate>/src`; within a file only
# the lines above its first `#[cfg(test)]`; blank lines and lines whose first
# non-blank characters are `//` (comments, doc comments) are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

for dir in crates/*/; do
    crate="$(basename "$dir")"
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1                  { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests                  { next }
        /^[[:space:]]*$/          { next }
        /^[[:space:]]*\/\//       { next }
        { n++ }
        END { printf "%d\n", n }
    ' | { read -r n; printf '%-12s %6d\n' "$crate" "$n"; }
done
