#!/usr/bin/env bash
# Builds the benchmark and the daemon binary it drives, then runs one
# workload. Run from the repository root:
#
#   bash loadbench/run.sh --workload soc_stream --seed 1 --seconds 15 --trace 0
#
# Binaries go to $CARGO_TARGET_DIR when set, else loadbench/target.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/siopmp-loadbench" "$@"
