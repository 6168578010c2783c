#!/usr/bin/env bash
# One command for the performance ledger: builds the benchmark crate from
# source (release, offline) and hands every argument to it.
#
#   benchmark/run.sh                          all workloads, end-to-end metrics
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --traced                 per-layer metrics (same as --trace 1)
#   benchmark/run.sh --quick                  scale-1 points, 1 rep, checks only
#   benchmark/run.sh --selfcheck              two back-to-back sets must agree
#   benchmark/run.sh --repin                  rewrite the pins in workloads.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so the last stdout line stays the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
exec "$target/release/mosaic-perf" --root "$here" "$@"
