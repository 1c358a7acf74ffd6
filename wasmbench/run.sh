#!/usr/bin/env bash
# Builds the repository's fleet binary and the benchmark from source,
# then makes one benchmark run. Run it from the repository root:
#
#   bash wasmbench/run.sh --workload batch-compute --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The
# result is the last line of standard output; build output goes to
# standard error.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p wasmperf-fleet --bin wasmperf-fleet >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/wasmbench" --fleet "$CARGO_TARGET_DIR/release/wasmperf-fleet" "$@"
