#!/usr/bin/env bash
# Run the service, CLI, core and gpusim unit suites and the root equality
# suites on a machine without the crates.io registry.
#
# The root workspace names registry crates, so it cannot resolve offline.
# This script makes a throw-away copy of the sources under target/, patches
# every registry crate the library code uses to the functional stand-ins in
# benchmark/offline/, strips the dev-dependencies that have no stand-in
# (proptest, criterion, sgp4) together with the [[bench]] targets that need
# them, and runs the suites that do not use those crates. The proptest-based
# suites are NOT run here.
#
#   scripts/offline-test.sh            run every offline suite
#   scripts/offline-test.sh <args...>  passed to the service/CLI `cargo test`
set -uo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$repo/target/offline-test"
copy="$work/src"

rm -rf "$copy"
mkdir -p "$copy"
cp -rp "$repo/Cargo.toml" "$repo/crates" "$repo/src" "$repo/tests" "$repo/examples" "$copy/"

# Stand-ins for the registry crates; the same set benchmark/Cargo.toml patches.
{
    echo
    echo "[patch.crates-io]"
    for dir in "$repo"/benchmark/offline/*/; do
        name="$(basename "$dir")"
        echo "$name = { path = \"$repo/benchmark/offline/$name\" }"
    done
} >>"$copy/Cargo.toml"

# Registry-only dev-dependencies, and the criterion [[bench]] targets.
for manifest in "$copy/Cargo.toml" "$copy"/crates/*/Cargo.toml; do
    awk '
        /^\[\[bench\]\]/ { skip = 1; next }
        /^\[/            { skip = 0 }
        skip             { next }
        /^(proptest|criterion)\.workspace = true/ { next }
        /^sgp4 = /       { next }
        { print }
    ' "$manifest" >"$manifest.tmp" && mv "$manifest.tmp" "$manifest"
done
rm -rf "$copy/crates/bench/benches"

export CARGO_TARGET_DIR="$work/target"
export RUST_BACKTRACE=1
cd "$copy"

failed=0
run() {
    echo "==> cargo test --release --offline --no-fail-fast $*"
    cargo test --release --offline --no-fail-fast "$@" || failed=1
}

run -p kessler-service -p kessler-cli "$@"
run -p kessler-core -p kessler-gpusim --lib
for suite in delta_correctness ground_truth variant_agreement cell_sizing; do
    run -p kessler --test "$suite"
done

if [ "$failed" -ne 0 ]; then
    echo "offline suites FAILED"
    exit 1
fi
echo "offline suites passed (proptest-based suites not run offline)"
