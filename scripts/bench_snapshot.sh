#!/usr/bin/env bash
# Snapshot the search-engine benchmark groups into a
# machine-readable JSON file (nanoseconds per iteration, one entry per
# benchmark id). Usage:
#
#   scripts/bench_snapshot.sh [out.json] [group ...]
#
# Runs the `auto_vs_blind`, `bell_vs_dp`, `propagation_vs_blind`,
# `treedec_vs_blind`, `store_ops` and `registry_ops` criterion groups — or just the
# groups named on the command line, merging their fresh numbers into an existing
# out.json so one group can be re-measured without re-running the
# multi-minute full sweep — and parses the harness report lines, e.g.
#
#   bell_vs_dp/subset_dp/13    median  5.16 ms  min  4.79 ms  mean  5.13 ms  (1 iters/sample)
#
# into {"median_ns": ..., "min_ns": ..., "mean_ns": ...} records. The
# default output name, BENCH_10.json, is the committed snapshot for
# the bucket-tree elimination engine (BENCH_7.json was the retired
# incremental re-solve one, BENCH_6.json the propagation/decomposition one,
# BENCH_5.json the bounds/warm-start/coalition-DP one); CI regenerates
# it as an artifact on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_10.json}"
shift $(($# > 0 ? 1 : 0))
benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=(auto_vs_blind bell_vs_dp propagation_vs_blind treedec_vs_blind store_ops registry_ops)
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

for bench in "${benches[@]}"; do
    cargo bench -p softsoa-bench --bench "$bench" | tee -a "$raw"
done

python3 - "$raw" "$out" <<'EOF'
import json
import re
import sys

raw, out = sys.argv[1], sys.argv[2]
scale = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
row = re.compile(
    r"^(?P<label>[\w./-]+)"
    r"\s+median\s+(?P<median>[\d.]+)\s+(?P<mu>\S+)"
    r"\s+min\s+(?P<min>[\d.]+)\s+(?P<nu>\S+)"
    r"\s+mean\s+(?P<mean>[\d.]+)\s+(?P<eu>\S+)"
    r"\s+\((?P<iters>\d+) iters/sample\)$"
)

groups = {}
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        m = row.match(line.strip())
        if not m:
            continue
        label = m.group("label")
        group = label.split("/", 1)[0]
        groups.setdefault(group, {})[label] = {
            "median_ns": round(float(m.group("median")) * scale[m.group("mu")], 3),
            "min_ns": round(float(m.group("min")) * scale[m.group("nu")], 3),
            "mean_ns": round(float(m.group("mean")) * scale[m.group("eu")], 3),
            "iters_per_sample": int(m.group("iters")),
        }

if not groups:
    sys.exit("bench_snapshot: no benchmark report lines found")

# Partial re-measure: start from the existing snapshot (if any) and
# overwrite just the groups that were run, so the untouched groups keep
# their committed numbers.
merged = {}
try:
    with open(out, encoding="utf-8") as fh:
        merged = json.load(fh).get("groups", {})
except (FileNotFoundError, json.JSONDecodeError):
    pass
merged.update(groups)

snapshot = {
    "script": "scripts/bench_snapshot.sh",
    "groups": {g: dict(sorted(rows.items())) for g, rows in sorted(merged.items())},
}
with open(out, "w", encoding="utf-8") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")
print(f"bench_snapshot: wrote {out}")
EOF
