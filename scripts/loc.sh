#!/usr/bin/env bash
# Production lines of Rust per crate, then their sum.
#
# Counting rule: every `*.rs` under `crates/<crate>/src`; within a file only
# the lines above its test module, i.e. above the first `#[cfg(test)]` that
# is followed by a `mod`; blank lines and lines whose first non-blank
# characters are `//` (comments, doc comments) are not counted.
#
# A `#[cfg(test)]` on anything else above that point (a test-only function
# or import among production code) would make "above the test module" mean
# something else per file, so it is reported and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    n="$(find "${dir}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1                  { in_tests = 0; gated = 0 }
        in_tests                  { next }
        /^[[:space:]]*$/          { next }
        gated {
            gated = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { in_tests = 1; next }
            print FILENAME ":" FNR - 1 ": test-gated item above the test module" > "/dev/stderr"
            bad = 1
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; next }
        /^[[:space:]]*\/\//       { next }
        { n++ }
        END { printf "%d\n", n; exit bad }
    ')" || status=1
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
exit "$status"
