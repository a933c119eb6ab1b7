#!/usr/bin/env bash
# Every offline CI check: .github/workflows/ci.yml runs this script after
# setting up the toolchain, and it runs the same way locally before pushing.
# Needs no network: every registry crate the manifests name is patched to an
# in-tree stand-in and Cargo.lock is committed. (The SGP4 oracle, which needs
# the registry, is the one check only the workflow runs.)
set -euo pipefail
cd "$(dirname "$0")/.."

# A run leaves the tree as it found it: whatever building, testing and
# running write goes to an ignored directory or a temporary one. The one
# exception is benchmark/Cargo.lock, which building the benchmark rewrites
# and which only a change to the benchmark commits.
tree_status() {
    git status --porcelain --untracked-files=all | grep -vx '.. benchmark/Cargo.lock' || true
}
tree_before="$(tree_status)"

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
# A SCREEN, an UPDATE absorbed by a DELTA, and an ADVANCE: 32 ADDs are far
# below the snapshot cadence, so every record stays in the WAL tail the
# restart below replays.
RUST_BACKTRACE=1 ./target/release/kessler submit screen --addr 127.0.0.1:7912
RUST_BACKTRACE=1 ./target/release/kessler submit update --id 17 --a 7012 --incl 0.9 --addr 127.0.0.1:7912
RUST_BACKTRACE=1 ./target/release/kessler submit delta --addr 127.0.0.1:7912
RUST_BACKTRACE=1 ./target/release/kessler submit advance --dt 30 --addr 127.0.0.1:7912
# METRICS over the wire: every answer so far is on the books once, the
# 32 preloaded ADDs included. Each requests row, spaces squeezed out, is
# e.g. `SCREENok1errors0`.
echo "==> kessler submit metrics counts every answer of the smoke, preload included"
metrics="$(RUST_BACKTRACE=1 ./target/release/kessler submit metrics --addr 127.0.0.1:7912)"
rows="$(tr -d ' ' <<<"$metrics")"
for row in ADDok32errors0 SCREENok1errors0 UPDATEok1errors0 DELTAok1errors0 \
    ADVANCEok1errors0 SUBSCRIBEok1errors0 UNSUBSCRIBEok1errors0; do
    if ! grep -qx "$row" <<<"$rows"; then
        echo "METRICS requests table lacks the row $row: $metrics" >&2
        exit 1
    fi
done
RUST_BACKTRACE=1 ./target/release/kessler submit shutdown --addr 127.0.0.1:7912
wait "$KESSLER_SERVE_PID"

# The same state directory, served again under another snapshot layout:
# startup replays the WAL the flat daemon left, screen records included,
# and must come back with its catalog, its adopted screen and delta and its
# advanced window. It checkpoints every 4 mutations, for the incremental
# check at the end.
echo "==> kessler serve restarts on its state directory under --shards 4x2 and recovers the catalog, screens and window"
./target/release/kessler serve --addr 127.0.0.1:7912 --n 32 --state-dir "$KESSLER_STATE_DIR" \
    --shards 4x2 --snapshot-every 4 &
KESSLER_SERVE_PID=$!
status="$(RUST_BACKTRACE=1 ./target/release/kessler submit status --addr 127.0.0.1:7912 --retries 8)"
compact="$(tr -d ' \n' <<<"$status")"
if ! grep -q '"recovered":true' <<<"$compact" || ! grep -q '"n_satellites":32,' <<<"$compact" \
    || ! grep -q '"full_screens":1,' <<<"$compact" || ! grep -q '"delta_screens":1' <<<"$compact" \
    || ! grep -q '"window":\[30\.0,' <<<"$compact"; then
    echo "restarted daemon did not recover its 32 satellites, 1 full screen, 1 delta screen and window at 30 s: $status" >&2
    exit 1
fi
# The replayed SCREEN, DELTA and ADVANCE ran in this process, so its METRICS
# shows them.
echo "==> the restarted daemon's METRICS shows the screens its WAL replay ran"
metrics="$(RUST_BACKTRACE=1 ./target/release/kessler submit metrics --addr 127.0.0.1:7912)"
for block in "full screens — 1 screens" "delta screens — 1 screens" \
    "advance tail screens — 1 screens"; do
    if ! grep -qF "$block" <<<"$metrics"; then
        echo "restarted daemon's METRICS lacks \"$block\": $metrics" >&2
        exit 1
    fi
done
# The checkpoint folding the replay in wrote the 4x2 chunks, and METRICS
# samples the chunks of every checkpoint under a layout of more than one.
echo "==> the restarted daemon's METRICS shows the chunks its post-replay checkpoint wrote"
if ! grep -q "dirty shards" <<<"$metrics"; then
    echo "restarted daemon's METRICS lacks the dirty shards row: $metrics" >&2
    exit 1
fi
# Four UPDATEs of one satellite make one cadence checkpoint, which
# rewrites only that satellite's chunk: the row holds the full post-replay
# checkpoint (8 chunks) and that one, so its p50 is below 8.
echo "==> four UPDATEs of one satellite checkpoint incrementally: METRICS shows 2 checkpoints, p50 below 8 chunks"
for _ in 1 2 3 4; do
    RUST_BACKTRACE=1 ./target/release/kessler submit update --id 17 --a 7012 --incl 0.9 --addr 127.0.0.1:7912
done
metrics="$(RUST_BACKTRACE=1 ./target/release/kessler submit metrics --addr 127.0.0.1:7912)"
dirty="$(grep "dirty shards" <<<"$metrics" || true)"
count="$(awk '{print $3}' <<<"$dirty")"
p50="$(awk '{print $4}' <<<"$dirty")"
if [ "$count" != 2 ] || ! awk -v p50="$p50" 'BEGIN { exit !(p50 != "" && p50 < 8) }'; then
    echo "dirty shards row is not 2 checkpoints with p50 below 8: $metrics" >&2
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

echo "==> the run left the tree as it found it (benchmark/Cargo.lock aside)"
tree_after="$(tree_status)"
if [ "$tree_before" != "$tree_after" ]; then
    echo "the run changed the tree; git status before and after:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "CI checks passed."
