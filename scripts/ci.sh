#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Every unit, integration and doc test of every crate, once: the service's
# crash-safety, disk-chaos, evented, subscribe, hybrid, metrics and recovery
# suites, the root delta_correctness / sharding_props suites, and the
# per-crate proptests are all members of the workspace.
echo "==> cargo test -q --workspace (backtraces on)"
RUST_BACKTRACE=1 cargo test -q --workspace

# The benchmark is its own offline workspace; it compiles against the
# public API of every library crate, so breaking that surface fails here.
echo "==> benchmark/run.sh test (harness and stand-in unit tests)"
RUST_BACKTRACE=1 benchmark/run.sh test

echo "==> benchmark/run.sh (smoke: every workload and gate at small n)"
RUST_BACKTRACE=1 benchmark/run.sh

echo "==> exp_cascade --smoke (live cascade absorption, small n)"
RUST_BACKTRACE=1 cargo run --release -p kessler-bench --bin exp_cascade -- \
  --smoke --json /tmp/results_cascade_smoke.json

echo "==> exp_scale --smoke (sharded daemon scale run, small n)"
RUST_BACKTRACE=1 cargo run --release -p kessler-bench --bin exp_scale -- \
  --smoke --json /tmp/results_scale_smoke.json

echo "==> kessler submit subscribe --smoke (push registration over a live daemon)"
cargo build --release -p kessler-cli
./target/release/kessler serve --addr 127.0.0.1:7912 --n 32 &
KESSLER_SERVE_PID=$!
trap 'kill "$KESSLER_SERVE_PID" 2>/dev/null || true' EXIT
RUST_BACKTRACE=1 ./target/release/kessler submit status --addr 127.0.0.1:7912 --retries 8
RUST_BACKTRACE=1 ./target/release/kessler submit subscribe --all --smoke --addr 127.0.0.1:7912
RUST_BACKTRACE=1 ./target/release/kessler submit shutdown --addr 127.0.0.1:7912
wait "$KESSLER_SERVE_PID"

echo "==> scripts/loc.sh (production lines per crate; fails on test-gated items among them)"
scripts/loc.sh

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI checks passed."
