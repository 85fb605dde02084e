#!/usr/bin/env bash
# Builds the benchmark from source (offline) and runs it.
#
#   benchmark/run.sh                                   the whole suite, one child process per workload
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   benchmark/run.sh compare a.jsonl b.jsonl
#
# Honours CARGO_TARGET_DIR (relative paths resolve against the current
# directory, as cargo does), so the suite can share a build cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/ptq-benchmark" "$@"
