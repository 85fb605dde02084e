#!/usr/bin/env bash
# Where did this run's seconds go: samples one benchmark workload's host
# time and prints the 25 functions with the most inline-aware self time,
# plus the share spent in glibc and in every other shared object.
#
#   bash ci/profile.sh <workload> [seconds=20]
#
# Builds the benchmark (offline, as benchmark/run.sh does) and a std-only
# SIGPROF sampler (ci/sampler.rs, `rustc -O --crate-type cdylib`), runs
# the benchmark binary with the sampler in LD_PRELOAD, and symbolises the
# sampled PCs with `addr2line -f -i -C`: a sample is charged to the
# innermost function at its PC, inlined frames included, so an accessor
# inlined into its caller still shows under its own name. The timer
# ticks at the kernel's clock rate (250 Hz on common configs), so use 20 s
# or more for a table whose rows are a few samples' worth apart. x86_64
# Linux only (the sampler reads RIP from the signal context); elsewhere
# it prints a note and exits 0. Informational, never a gate.
set -euo pipefail
if [ $# -lt 1 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
workload="$1" seconds="${2:-20}"
if [ "$(uname -s)/$(uname -m)" != "Linux/x86_64" ]; then
    echo "ci/profile.sh: x86_64 Linux only; nothing sampled on $(uname -s)/$(uname -m)"
    exit 0
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
bin="$target/release/ptq-benchmark"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

CARGO_TARGET_DIR="$target" bash "$root/benchmark/run.sh" spec >/dev/null
rustc -O --crate-type cdylib "$here/sampler.rs" -o "$work/sampler.so"

# The binary itself, not run.sh: cargo must not run under the sampler.
SAMPLER_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 >"$work/run.out" &
pid=$!
wait "$pid"
samples="$work/samples.$pid"
[ -s "$samples" ] || { echo "ci/profile.sh: the sampler wrote nothing" >&2; exit 1; }

# PC -> (object, offset). The load base of an object is the start of its
# offset-0 mapping: text is mapped at p_vaddr = p_offset + 0x1000, so the
# text mapping's own start would be off by that page. mawk has no
# strtonum, so hex is parsed by hand (PCs stay below 2^53).
awk -v bin="$bin" -v addrs="$work/addrs" -v others="$work/others" '
    function hex(s,    i, n) {
        n = 0
        s = tolower(s)
        for (i = 1; i <= length(s); i++)
            n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    /^--- maps$/ { in_maps = 1; next }
    !in_maps { count[$1]++; total++; next }
    NF >= 6 {
        split($1, range, "-")
        m++
        lo[m] = hex(range[1]); hi[m] = hex(range[2]); path[m] = $6
        if (hex($3) == 0 && !(path[m] in base)) base[path[m]] = lo[m]
    }
    END {
        for (pc in count) {
            v = hex(pc); object = "[unmapped]"
            for (i = 1; i <= m; i++)
                if (v >= lo[i] && v < hi[i]) { object = path[i]; break }
            if (object == bin) printf "%x %d\n", v - base[object], count[pc] > addrs
            else {
                n = split(object, parts, "/")
                share[parts[n]] += count[pc]
            }
        }
        for (o in share) printf "%d %s\n", share[o], o > others
        print total
    }' "$samples" >"$work/total"
total="$(cat "$work/total")"
touch "$work/addrs" "$work/others"

# Innermost function per address: `addr2line -a` prints the address, then
# (function, location) pairs from the innermost inlined frame outwards.
cut -d' ' -f1 "$work/addrs" | sed 's/^/0x/' \
    | addr2line -a -f -i -C -e "$bin" >"$work/symbols"
awk -v addrs="$work/addrs" '
    BEGIN { while ((getline line < addrs) > 0) { split(line, f, " "); n[++k] = f[2] } }
    /^0x[0-9a-f]+$/ { i++; want = 1; next }
    want { self[$0] += n[i]; want = 0; next }
    END { for (fn in self) printf "%d\t%s\n", self[fn], fn }' "$work/symbols" \
    | sort -rn >"$work/table"

echo "$workload: $total samples over --seconds $seconds (pid $pid), inline-aware self time"
head -n 25 "$work/table" | awk -v total="$total" -F '\t' '
    { printf "%6.2f%%  %6d  %s\n", 100 * $1 / total, $1, substr($2, 1, 150) }'
echo "outside the benchmark binary:"
sort -rn "$work/others" | awk -v total="$total" '
    { printf "%6.2f%%  %6d  %s\n", 100 * $1 / total, $1, $2 }'
grep -q 'libc\.so' "$work/others" || echo "  0.00%       0  glibc"
