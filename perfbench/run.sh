#!/usr/bin/env bash
# Builds the shipped `xmltc` binary and the benchmark from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's progress goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin xmltc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --xmltc "$CARGO_TARGET_DIR/release/xmltc" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
