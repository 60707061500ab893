#!/usr/bin/env bash
# Pairs the benchmark and the kernels at the working tree against a parent
# revision, and fails on a regression.
#
#   scripts/pair.sh <parent-rev> [--pairs N] [--seeds "S1 S2 …"]
#                   [--workloads "W1 W2 …"] [--seconds T]
#
# Checks the parent out as a git worktree under target/pair/ and builds each
# side offline into its own CARGO_TARGET_DIR there: the benchmark package for
# BENCHMARK.json's workloads, `bench-report` for the workload `kernels`. Then
# it runs each workload on both sides N times, alternating which side runs
# first: `benchmark/run.sh --workload W --seed S --seconds T --trace 0`, whose
# last stdout line is the result, or `bench-report` writing to target/pair/,
# whose every pair gives its optimized side's ns per iteration. Pair i uses
# seed i of --seeds, cycling (default: 101, 102, …). Every value is kept in
# target/pair/runs.tsv, and scripts/pair_summary.sh prints the table and
# sets the exit status: 1 if the change is behind in at least 9/10 pairs of
# a row by more than the parent's IQR. Defaults: 10 pairs, every workload of
# BENCHMARK.json then `kernels`, 30 s.
#
# Run it from anywhere inside the checkout; the working tree, uncommitted
# edits included, is the change side. It leaves no worktree behind.
set -euo pipefail

usage() {
    sed -n '5,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
parent_rev="$1"
shift
pairs=10
seeds=""
workloads="paper_cnn_adaptive sparse_wide_linear cohort_million_wired faulty_auto_resume kernels"
seconds=30
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seeds) seeds="${2//,/ }"; shift 2 ;;
        --workloads) workloads="${2//,/ }"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) usage ;;
    esac
done
if [[ -z "$seeds" ]]; then
    seeds="$(seq 101 $((100 + pairs)) | tr '\n' ' ')"
fi
read -r -a seed_list <<<"$seeds"

root="$(git rev-parse --show-toplevel)"
work="$root/target/pair"
parent_tree="$work/parent"
mkdir -p "$work"
git -C "$root" worktree remove --force "$parent_tree" 2>/dev/null || rm -rf "$parent_tree"
git -C "$root" worktree prune
git -C "$root" worktree add --quiet --detach "$parent_tree" "$parent_rev"
cleanup() {
    git -C "$root" worktree remove --force "$parent_tree" 2>/dev/null || true
    git -C "$root" worktree prune
}
trap cleanup EXIT

tree_of() { if [[ "$1" == parent ]]; then echo "$parent_tree"; else echo "$root"; fi; }

for side in parent change; do
    echo "pair: building the $side side" >&2
    for workload in $workloads; do
        if [[ "$workload" == kernels ]]; then
            CARGO_TARGET_DIR="$work/$side-kernels" cargo build --release --offline --quiet \
                --manifest-path "$(tree_of "$side")/Cargo.toml" -p agsfl-bench --bin bench-report >&2
        else
            CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
                --manifest-path "$(tree_of "$side")/benchmark/Cargo.toml" >&2
        fi
    done
done

# One run: prints "workload pair side metric value" per metric of its result.
run() {
    local side="$1" workload="$2" seed="$3" pair="$4" line
    if [[ "$workload" == kernels ]]; then
        (cd "$(tree_of "$side")" && "$work/$side-kernels/release/bench-report" \
            "$work/kernels.json" "$work/history.jsonl" 2>>"$work/bench-report.log")
        awk -v p="$pair" -v s="$side" 'match($0, /"kernel":"[^"]+"/) {
            name = substr($0, RSTART + 10, RLENGTH - 11)
            match($0, /"scratch_ns_per_iter":[^,}]+/)
            print "kernels", p, s, name, substr($0, RSTART + 22, RLENGTH - 22)
        }' "$work/kernels.json"
        return
    fi
    line="$(cd "$(tree_of "$side")" \
        && CARGO_TARGET_DIR="$work/$side-target" bash benchmark/run.sh \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    awk -v w="$workload" -v p="$pair" -v s="$side" '{
        line = $0
        while (match(line, /"[a-z_]+":\{"value":[^,}]+/)) {
            field = substr(line, RSTART + 1, RLENGTH - 1)
            line = substr(line, RSTART + RLENGTH)
            split(field, parts, "\"")
            value = field
            sub(/.*"value":/, "", value)
            print w, p, s, parts[1], value
        }
    }' <<<"$line"
}

runs="$work/runs.tsv"
: >"$runs"
for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed="${seed_list[$((i % ${#seed_list[@]}))]}"
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "pair: $workload pair $((i + 1))/$pairs seed $seed: $side" >&2
            run "$side" "$workload" "$seed" "$i" >>"$runs"
        done
    done
done

"$(dirname "$0")/pair_summary.sh" "$runs"
