#!/usr/bin/env bash
# Every offline CI check: .github/workflows/ci.yml runs this script after
# setting up the toolchain, and it runs the same way locally before pushing.
# Needs no network: every registry crate the manifests name is patched to an
# in-tree stand-in and Cargo.lock is committed. (The SGP4 oracle, which needs
# the registry, is the one check only the workflow runs.)
set -euo pipefail
cd "$(dirname "$0")/.."

# The tier-1 line of ROADMAP.md, literally. `default-members` makes it cover
# every package: unit, integration, property and doc tests of all of them.
echo "==> cargo build --release && cargo test -q"
cargo build --release && cargo test -q

# The golden state directories were written by earlier commits' binaries:
# a test serves a copy, never the fixture itself.
echo "==> the suite left crates/service/tests/fixtures untouched"
git diff --exit-code -- crates/service/tests/fixtures

# A dependency that would need the registry has to fail here, not in the
# next offline session: the lockfile names path packages only, and every
# cargo call below refuses to change it.
echo "==> Cargo.lock names no registry package"
if grep -n '^source = ' Cargo.lock; then
    echo "Cargo.lock has a registry package; patch it to an in-tree stand-in" >&2
    exit 1
fi

# The benchmark is its own offline workspace; it compiles against the
# public API of every library crate, so breaking that surface fails here.
echo "==> benchmark/run.sh test (harness and stand-in unit tests)"
RUST_BACKTRACE=1 benchmark/run.sh test

echo "==> benchmark/run.sh (smoke: every workload and gate at small n)"
RUST_BACKTRACE=1 benchmark/run.sh

echo "==> kessler submit subscribe --smoke (push registration over a live durable daemon)"
KESSLER_STATE_DIR="$(mktemp -d)"
./target/release/kessler serve --addr 127.0.0.1:7912 --n 32 --state-dir "$KESSLER_STATE_DIR" &
KESSLER_SERVE_PID=$!
trap 'kill "$KESSLER_SERVE_PID" 2>/dev/null || true; rm -rf "$KESSLER_STATE_DIR"' EXIT
RUST_BACKTRACE=1 ./target/release/kessler submit status --addr 127.0.0.1:7912 --retries 8 --req-id ci-ready
RUST_BACKTRACE=1 ./target/release/kessler submit subscribe --all --smoke --addr 127.0.0.1:7912
RUST_BACKTRACE=1 ./target/release/kessler submit shutdown --addr 127.0.0.1:7912
wait "$KESSLER_SERVE_PID"

# The same state directory, served again: startup replays the WAL the first
# daemon left and must come back with its catalog.
echo "==> kessler serve restarts on its state directory and recovers the catalog"
./target/release/kessler serve --addr 127.0.0.1:7912 --n 32 --state-dir "$KESSLER_STATE_DIR" &
KESSLER_SERVE_PID=$!
status="$(RUST_BACKTRACE=1 ./target/release/kessler submit status --addr 127.0.0.1:7912 --retries 8)"
if ! grep -q '"recovered": true' <<<"$status" || ! grep -q '"n_satellites": 32,' <<<"$status"; then
    echo "restarted daemon did not recover its 32 satellites: $status" >&2
    exit 1
fi
RUST_BACKTRACE=1 ./target/release/kessler submit shutdown --addr 127.0.0.1:7912
wait "$KESSLER_SERVE_PID"

# `cargo test` only compiles the examples; run each one, at a size that
# finishes in seconds (fragmentation_event's cost grows with the square of
# its fragment count, so it gets 20 instead of its default 2 000).
echo "==> the examples run"
for example in quickstart memory_planning tle_screening megaconstellation; do
    RUST_BACKTRACE=1 cargo run --release --locked --quiet --example "$example"
done
RUST_BACKTRACE=1 cargo run --release --locked --quiet --example fragmentation_event -- 20

echo "==> scripts/loc.sh (production lines per crate; fails on test-gated items among them)"
scripts/loc.sh

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

# A renamed or deleted item must take its doc links with it.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --locked --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

echo "CI checks passed."
