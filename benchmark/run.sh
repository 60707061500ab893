#!/usr/bin/env bash
# The benchmark's one command. Builds the package offline, then:
#
#   benchmark/run.sh [--seed S]                 every workload, untraced and traced
#   benchmark/run.sh --quick                    the same in about 20 s (one sub-run, 6 rounds)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                               one workload; the last line of stdout is the result object
#   benchmark/run.sh --compare A.json B.json    two result files against the metrics' bounds
#
# Results, trace files and checkpoints go to benchmark/out/. Run it from the
# root of the checkout. Exits nonzero if an output check fails.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/agsfl-benchmark" --out "$here/out" "$@"
