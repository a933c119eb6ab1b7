#!/usr/bin/env bash
# Smoke run of the benchmark: every workload, untraced and traced, at
# n <= 2000, with every correctness gate, in well under a minute.
#
#   benchmark/run.sh            smoke run
#   benchmark/run.sh test       unit tests of the harness and the stand-ins
#   benchmark/run.sh <args...>  passed to the benchmark binary as they are
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"

case "${1:-smoke}" in
smoke)
    exec cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke --trace
    ;;
test)
    exec cargo test --release --offline --quiet --manifest-path "$manifest" --workspace
    ;;
*)
    exec cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
    ;;
esac
