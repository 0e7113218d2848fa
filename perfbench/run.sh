#!/usr/bin/env bash
# Build the benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload <soc_saturated|soc_idle|noc_mesh> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The binary places itself: each repetition runs pinned to one CPU, and
# the repetitions rotate over every CPU the process may use (see
# perfbench/src/cpus.rs).
set -euo pipefail

cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/secbus-perfbench" "$@"
