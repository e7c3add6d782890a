#!/usr/bin/env bash
# Builds the release `webtable-serve` binary and the benchmark into one
# target directory, then runs the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload search_mix --seed 1 --seconds 24 --trace 0
#
# Build output goes to standard error, so the benchmark's result stays
# the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p webtable-server --bin webtable-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
