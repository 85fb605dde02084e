#!/usr/bin/env bash
# Non-test Rust lines: for every file under crates/*/src, the lines before
# its first top-level `#[cfg(test)]` (`*tests.rs` and `testutil.rs` are test code and
# are skipped), summed per crate, for gpu-queue's device/ and verify/
# directories, for bench's serve/ and experiments/ directories and for
# the workspace. Comments and blank lines count.
# Below it, the line counts of the three docs, then DESIGN.md's per `##` /
# `###` section (a `####` subsection counts toward its `###`; the title
# and preamble are the first row). The tables each CHANGES.md entry
# reports; informational, never a gate.
#   bash ci/size.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
find crates/*/src -name '*.rs' ! -name '*tests.rs' ! -name 'testutil.rs' | sort |
    while read -r file; do
        echo "$file $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
    done |
    awk '{
        split($1, part, "/")
        crate[part[2]] += $2
        total += $2
        if ($1 ~ /^crates\/gpu-queue\/src\/device\//) device += $2
        if ($1 ~ /^crates\/gpu-queue\/src\/verify\//) verify += $2
        if ($1 ~ /^crates\/bench\/src\/serve\//) serve += $2
        if ($1 ~ /^crates\/bench\/src\/experiments\//) experiments += $2
        if ($1 == "crates/pt-bfs/src/runner.rs") runner = $2
    }
    END {
        for (name in crate) printf "%-28s %6d\n", name, crate[name] | "sort"
        close("sort")
        printf "%-28s %6d\n", "workspace", total
        printf "%-28s %6d\n", "gpu-queue/src/device", device
        printf "%-28s %6d\n", "gpu-queue/src/verify", verify
        printf "%-28s %6d\n", "bench/src/serve", serve
        printf "%-28s %6d\n", "bench/src/experiments", experiments
        printf "%-28s %6d\n", "pt-bfs/src/runner.rs", runner
    }'
echo
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    printf "%-28s %6d\n" "$doc" "$(wc -l < "$doc")"
done
echo
awk '/^(##|###) / { if (NR > 1) printf "%6d  %s\n", n, name; name = $0; n = 0 }
    NR == 1 { name = "(preamble)" }
    { n++ }
    END { printf "%6d  %s\n", n, name }' DESIGN.md
