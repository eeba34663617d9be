#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire_light --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.jsonl change.jsonl
#
# Cargo output goes to stderr; the benchmark's last stdout line is its
# result. CARGO_TARGET_DIR, when set, chooses the build directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/softsoa-perfbench" "$@"
