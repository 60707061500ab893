#!/usr/bin/env bash
# Summarises paired runs and gates on them.
#
#   scripts/pair_summary.sh RUNS.tsv
#
# RUNS.tsv holds one line per run and metric, `workload pair side metric
# value`, with side `parent` or `change` (scripts/pair.sh writes it). A row
# is a workload's metric: each end-to-end metric of BENCHMARK.json, read in
# the direction it declares, and every metric of the `kernels` workload (a
# kernel's ns per iteration, lower is better). Per row it prints the
# parent's and the change's q1/median/q3 (linearly interpolated), the median
# gap, the parent's interquartile range, the pairs the change is ahead and
# behind in (ties count for neither) and the gate. A row fails the gate when
# the change is behind in at least ⌈0.9·N⌉ of its N pairs and its median is
# worse than the parent's by more than the parent's IQR. Exits 1 if a row
# fails, naming it on stderr.
set -euo pipefail
if [[ $# -ne 1 ]]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi

awk '
    # "q1/median/q3" of the numbers in the string s, linearly interpolated,
    # or "-" if there are none; q[1..3] holds them.
    function spread(s,    v, n, i, j, x, k, at, lo, hi) {
        n = split(s, v, " ")
        if (n == 0) return "-"
        for (i = 2; i <= n; i++) {
            x = v[i] + 0
            for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
        for (k = 1; k <= 3; k++) {
            at = (n - 1) * k / 4 + 1; lo = int(at); hi = (lo < n) ? lo + 1 : lo
            q[k] = v[lo] + (at - lo) * (v[hi] - v[lo])
        }
        return sprintf("%.4g/%.4g/%.4g", q[1], q[2], q[3])
    }
    FNR == NR {
        if (/"end_to_end"/) inside = 1
        if (/"per_layer"/) inside = 0
        if (inside && /"name"/) { gsub(/[",]/, "", $2); name = $2 }
        if (inside && /"better"/) { gsub(/[",]/, "", $2); better[name] = $2 }
        next
    }
    {
        b = ($1 == "kernels") ? "lower" : better[$4]
        if (b == "") next
        row = $1 " " $4
        if (!(row in dir)) { dir[row] = b; rows[++nrows] = row }
        if (!((row, $2) in seen)) { seen[row, $2] = 1; ids[row] = ids[row] " " $2 }
        v[row, $2, $3] = $5
        series[row, $3] = series[row, $3] " " $5
    }
    END {
        fmt = "%-22s %-24s %-30s %-30s %9s %10s %6s %6s %4s\n"
        printf fmt, "workload", "metric", "parent q1/median/q3", "change q1/median/q3", \
            "gap", "parent IQR", "ahead", "behind", "gate"
        for (r = 1; r <= nrows; r++) {
            row = rows[r]; sign = (dir[row] == "lower") ? 1 : -1
            parent = spread(series[row, "parent"]); p1 = q[1]; pm = q[2]; p3 = q[3]
            change = spread(series[row, "change"]); cm = q[2]
            n = split(ids[row], pair, " "); pairs = ahead = behind = 0
            for (i = 1; i <= n; i++) {
                if (!(((row, pair[i], "parent") in v) && ((row, pair[i], "change") in v))) continue
                pairs++
                d = sign * (v[row, pair[i], "change"] - v[row, pair[i], "parent"])
                if (d < 0) ahead++
                if (d > 0) behind++
            }
            fail = pairs > 0 && behind * 10 >= 9 * pairs && sign * (cm - pm) > p3 - p1
            split(row, key, " ")
            gap = (parent == "-" || change == "-" || pm == 0) ? "-" : sprintf("%+.1f%%", (cm - pm) / pm * 100)
            iqr = (parent == "-") ? "-" : sprintf("%.4g", p3 - p1)
            printf fmt, key[1], key[2], parent, change, gap, iqr, \
                ahead "/" pairs, behind "/" pairs, (fail ? "FAIL" : "ok")
            if (fail) failed = failed "\n  " row " (behind in " behind "/" pairs ")"
        }
        if (failed != "") {
            fflush()
            print "pair_summary: behind the parent in >= 9/10 pairs by more than its IQR:" failed > "/dev/stderr"
            exit 1
        }
    }' "$(dirname "$0")/../BENCHMARK.json" "$1"
