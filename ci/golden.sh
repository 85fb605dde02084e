#!/usr/bin/env bash
# The simulated-output golden: a fresh `repro all` + `repro verify` at the
# pinned scale, one worker per CPU, must reproduce the committed results/
# byte for byte. results/ is generated serially, so this is also the
# --jobs determinism check for every experiment at once. `repro` writes
# nothing host-dependent, so nothing is excluded from the diff.
#
# After an intended change to simulated output, regenerate and commit:
#   rm -rf results
#   ./target/release/repro all --scale 0.05 --jobs 1 --out results
#   ./target/release/repro verify --scale 0.05 --jobs 1 --out results
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release -p repro-bench --bin repro
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
./target/release/repro all --scale 0.05 --jobs 0 --out "$fresh" >/dev/null
./target/release/repro verify --scale 0.05 --jobs 0 --out "$fresh" >/dev/null
diff -r results "$fresh"
echo "results/ reproduces: $(find results -type f | wc -l) files byte-identical at --jobs 0"
