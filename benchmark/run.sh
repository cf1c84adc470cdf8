#!/usr/bin/env bash
# The one command of the benchmark: builds `spine` in release mode, then
#
#   run.sh [--seed S] [--smoke]
#       runs every workload, untraced and traced, verifies the outputs,
#       prints every metric by name with its unit and writes
#       benchmark/out/results.json and benchmark/out/<workload>.trace.json;
#
#   run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
#       runs one workload and prints its result object as the last line.
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/spine/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/spine/Cargo.toml --target-dir "$target" >&2
exec "$target/release/spine" "$@"
