#!/usr/bin/env bash
# Builds `nchecker` and `nckbench` from source into one target directory,
# then runs one benchmark. Run from anywhere; arguments pass through:
#
#   bash nckbench/run.sh --workload store-cold --seed 7 --seconds 10 --trace 0
#
# CARGO_TARGET_DIR, when set, is where both builds go (default:
# .bench_build at the repository root).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p nck-svc --bin nchecker
cargo build --release --quiet --offline --manifest-path nckbench/Cargo.toml
# Not exec'd: nckbench starts as a fresh process, so the CPU it reads
# from getrusage(RUSAGE_CHILDREN) is the program's alone, not the build's.
"$CARGO_TARGET_DIR/release/nckbench" "$@"
