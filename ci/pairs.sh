#!/usr/bin/env bash
# Alternating pairs: a change's host-clock end-to-end metrics against its
# parent's on one benchmark workload. Builds each tree's benchmark once,
# offline, into that tree's own target directory, then runs
# `benchmark/run.sh --workload W` once per side per pair, the parent
# first on odd pairs and the change first on even ones. For setup_s,
# wall_s and peak_rss_mb (lower is better for all three) it prints each
# side's median [Q1, Q3], the change in the median, each side's quartile
# spread (IQR / median, the quartiles as `benchmark/src/stats.rs` takes
# them), the pairs the change won and the raw runs. Fails if any run is
# not "correct":true or reports failed operations. Informational, never
# a gate.
#   bash ci/pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seed=2222] [seconds=10]
set -euo pipefail
if [ $# -lt 3 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3" pairs="${4:-10}" seed="${5:-2222}" seconds="${6:-10}"
metrics=(setup_s wall_s peak_rss_mb)
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

# run.sh builds before it runs; `spec` makes that build the only work.
for tree in "$parent" "$change"; do
    CARGO_TARGET_DIR="$tree/benchmark/target" bash "$tree/benchmark/run.sh" spec >/dev/null
done

# One run of `$1` (parent|change); appends its metrics to $runs/<side>.<metric>.
run() {
    local side="$1" tree json value
    [ "$side" = parent ] && tree="$parent" || tree="$change"
    json="$(CARGO_TARGET_DIR="$tree/benchmark/target" bash "$tree/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^{' | tail -n 1)" || true
    if [[ "$json" != *'"correct":true'* || "$json" != *'"failed":0'[,}]* ]]; then
        echo "$side run on $workload failed its checks: $json" >&2
        exit 1
    fi
    for metric in "${metrics[@]}"; do
        value="$(sed -n "s/.*\"$metric\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$json")"
        if [ -z "$value" ]; then
            echo "$side run on $workload reported no $metric: $json" >&2
            exit 1
        fi
        echo "$value" >>"$runs/$side.$metric"
    done
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then run parent; run change; else run change; run parent; fi
    echo "pair $pair/$pairs done" >&2
done

echo "$workload: $pairs alternating pairs, seed $seed, $seconds s per run"
for metric in "${metrics[@]}"; do
    paste "$runs/parent.$metric" "$runs/change.$metric" | awk -v metric="$metric" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Exclusive-method quartile i (1 or 3) of sorted a[1..n].
        function quartile(a, n, i,    j, delta) {
            if (n == 1) return a[1]
            j = int(i * (n + 1) / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            delta = i * (n + 1) / 4 - j
            return a[j] + (a[j + 1] - a[j]) * delta
        }
        function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
        { p[NR] = $1; c[NR] = $2; rp = rp " " $1; rc = rc " " $2; if ($2 < $1) won++ }
        END {
            n = NR; sort(p, n); sort(c, n)
            mp = median(p, n); mc = median(c, n)
            printf "  %-12s parent %.4f [%.4f, %.4f]  change %.4f [%.4f, %.4f]  median %+.2f%%\n",
                metric, mp, quartile(p, n, 1), quartile(p, n, 3),
                mc, quartile(c, n, 1), quartile(c, n, 3), 100 * (mc - mp) / mp
            printf "  %-12s spread parent %.1f%%  change %.1f%%  change won %d/%d pairs\n", "",
                100 * (quartile(p, n, 3) - quartile(p, n, 1)) / mp,
                100 * (quartile(c, n, 3) - quartile(c, n, 1)) / mc, won, n
            printf "  %-12s raw parent:%s\n  %-12s raw change:%s\n", "", rp, "", rc
        }'
done
