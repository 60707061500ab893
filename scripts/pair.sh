#!/usr/bin/env bash
# Pairs the benchmark at the working tree against a parent revision.
#
#   scripts/pair.sh <parent-rev> [--pairs N] [--seeds "S1 S2 …"]
#                   [--workloads "W1 W2 …"] [--seconds T]
#
# Checks the parent out as a git worktree under target/pair/, builds the
# benchmark package of each side offline into its own CARGO_TARGET_DIR, then
# runs `benchmark/run.sh --workload W --seed S --seconds T --trace 0` on both
# sides N times per workload, alternating which side runs first. Pair i uses
# seed i of --seeds, cycling (default: 101, 102, …). Every run's result line
# (the last line of stdout) is kept in target/pair/runs.tsv, and the script
# prints, per workload and end-to-end metric of BENCHMARK.json, the parent's
# and the change's q1/median/q3, the median gap, the parent's interquartile
# range and the number of pairs in which the change is ahead (better by the
# metric's own direction). Defaults: 10 pairs, every workload, 30 s.
#
# Run it from anywhere inside the checkout; the working tree, uncommitted
# edits included, is the change side. It leaves no worktree behind.
set -euo pipefail

usage() {
    sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
parent_rev="$1"
shift
pairs=10
seeds=""
workloads="paper_cnn_adaptive sparse_wide_linear cohort_million_wired faulty_auto_resume"
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
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$(tree_of "$side")/benchmark/Cargo.toml" >&2
done

# One run: prints "workload pair side metric value" per metric of its result.
run() {
    local side="$1" workload="$2" seed="$3" pair="$4" line
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

# "metric better" for every end-to-end metric of BENCHMARK.json.
directions="$(awk '
    /"end_to_end"/ { inside = 1 }
    /"per_layer"/ { inside = 0 }
    inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$root/BENCHMARK.json")"

# q1/median/q3 of the numbers on stdin, linearly interpolated.
quartiles() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "- - -"; exit }
        for (k = 1; k <= 3; k++) {
            at = (NR - 1) * k / 4 + 1; lo = int(at); hi = (lo < NR) ? lo + 1 : lo
            printf "%s%.6g", (k > 1 ? " " : ""), v[lo] + (at - lo) * (v[hi] - v[lo])
        }
        print ""
    }'
}

printf '%-22s %-18s %-32s %-32s %9s %11s %6s\n' workload metric \
    "parent q1/median/q3" "change q1/median/q3" "gap" "parent IQR" ahead
for workload in $workloads; do
    while read -r metric better; do
        series() { awk -v w="$workload" -v s="$1" -v m="$metric" \
            '$1 == w && $3 == s && $4 == m { print $5 }' "$runs"; }
        read -r p1 pm p3 <<<"$(series parent | quartiles)"
        read -r c1 cm c3 <<<"$(series change | quartiles)"
        ahead="$(awk -v w="$workload" -v m="$metric" -v b="$better" '
            $1 == w && $4 == m { v[$2, $3] = $5; seen[$2] = 1 }
            END {
                for (p in seen) {
                    if (!(((p, "parent") in v) && ((p, "change") in v))) continue
                    n++
                    d = v[p, "change"] - v[p, "parent"]
                    if ((b == "lower" && d < 0) || (b == "higher" && d > 0)) a++
                }
                printf "%d/%d", a, n
            }' "$runs")"
        gap="$(awk -v p="$pm" -v c="$cm" 'BEGIN {
            if (p == "-" || c == "-" || p == 0) print "-"; else printf "%+.1f%%", (c - p) / p * 100 }')"
        iqr="$(awk -v a="$p1" -v b="$p3" 'BEGIN { if (a == "-") print "-"; else printf "%.4g", b - a }')"
        printf '%-22s %-18s %-32s %-32s %9s %11s %6s\n' "$workload" "$metric" \
            "$p1/$pm/$p3" "$c1/$cm/$c3" "$gap" "$iqr" "$ahead"
    done <<<"$directions"
done
