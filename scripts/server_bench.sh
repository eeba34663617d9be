#!/usr/bin/env bash
# Snapshot the negotiation daemon's throughput and fault envelope into
# BENCH_8.json, and the contended fairness–utility frontier into
# BENCH_9.json. Usage:
#
#   scripts/server_bench.sh [out.json] [contention_out.json]
#
# Runs the deterministic load generator (`softsoa load`, release build)
# against a self-hosted daemon twice:
#
#   fault_free — 400 well-behaved sessions (20% registry churn), no
#                injected faults: the throughput baseline.
#   chaos      — the same load with 15% hostile transports (silent
#                stalls, truncated frames, slow-loris, disconnects),
#                store-level fault injection in every negotiation
#                (rate 0.3) and server-side wire chaos (rate 0.05),
#                under a tightened 800 ms session deadline.
#
# Both rows carry sessions/sec, P50/P99/max latency, the per-outcome
# tally, and the flat-memory witness (binding-cache entries vs bound).
# The script fails if any session hangs or a drain misses its
# deadline — the dependability claims this PR exists to enforce.
#
# The contention group then runs the same fixed contended workload
# (6 waves of 6 stable clients racing for 2 single-slot providers)
# under each allocation objective — fcfs, utilitarian, leximin, nash —
# tracing the fairness–utility frontier: total agreed level vs
# starvation count and Jain index. The script fails unless leximin
# starves nobody while the FCFS baseline starves at least one client.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_8.json}"
out_contention="${2:-BENCH_9.json}"

cargo build --release -p softsoa-cli
bin=target/release/softsoa

common=(--clients 400 --concurrency 24 --churn-rate 0.2
        --workers 8 --queue 128 --drain-ms 3000)

fault_free="$("$bin" load "${common[@]}" \
    --fault-rate 0 --seed 7 --session-deadline-ms 2000)"
chaos="$("$bin" load "${common[@]}" \
    --fault-rate 0.15 --seed 1008 --session-deadline-ms 800 \
    --store-chaos-seed 41 --store-chaos-rate 0.3 \
    --wire-chaos-seed 17 --wire-chaos-rate 0.05)"

python3 - "$out" <<EOF
import json
import sys

rows = {"fault_free": json.loads('''$fault_free'''),
        "chaos": json.loads('''$chaos''')}
for name, row in rows.items():
    load, drain = row["load"], row["drain"]
    assert load["hung"] == 0, f"{name}: {load['hung']} hung sessions"
    assert drain["within_deadline"], f"{name}: drain overran: {drain}"
    print(f"{name:>10}: {load['sessions_per_sec']:8.1f} sessions/s  "
          f"p99 {load['p99_ms']:7.1f} ms  outcomes {load['outcomes']}")
with open(sys.argv[1], "w") as fh:
    json.dump(rows, fh, indent=2)
    fh.write("\n")
print(f"wrote {sys.argv[1]}")
EOF

contention=(--contended --waves 6 --wave-clients 6 --providers 2 --slots 1
            --seed 7 --drain-ms 3000)

fcfs="$("$bin" load "${contention[@]}" --fairness fcfs)"
utilitarian="$("$bin" load "${contention[@]}" --fairness utilitarian)"
leximin="$("$bin" load "${contention[@]}" --fairness leximin)"
nash="$("$bin" load "${contention[@]}" --fairness nash)"

python3 - "$out_contention" <<EOF
import json
import sys

rows = {"fcfs": json.loads('''$fcfs'''),
        "utilitarian": json.loads('''$utilitarian'''),
        "leximin": json.loads('''$leximin'''),
        "nash": json.loads('''$nash''')}
for name, row in rows.items():
    assert row["hung"] == 0, f"{name}: {row['hung']} hung wave sessions"
    print(f"{name:>12}: sum_level {row['sum_level']:6.2f}  "
          f"starved {row['starved_clients']}  jain {row['jain_bound']:.3f}  "
          f"max streak {row['max_denial_streak']}")
assert rows["leximin"]["starved_clients"] == 0, \
    f"leximin starves: {rows['leximin']}"
assert rows["nash"]["starved_clients"] == 0, f"nash starves: {rows['nash']}"
assert rows["fcfs"]["starved_clients"] >= 1, \
    f"fcfs fails to starve anyone — no contention: {rows['fcfs']}"
assert rows["leximin"]["jain_bound"] >= rows["fcfs"]["jain_bound"], \
    "leximin is less fair than fcfs"
with open(sys.argv[1], "w") as fh:
    json.dump(rows, fh, indent=2)
    fh.write("\n")
print(f"wrote {sys.argv[1]}")
EOF
