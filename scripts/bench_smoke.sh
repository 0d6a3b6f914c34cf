#!/usr/bin/env bash
# Bench smoke run: executes every table target (one per figure/table of
# the paper, plus the sharded, serving, fleet, fault and recovery tables)
# and the criterion micro-benchmarks, and writes a JSON record of them.
#
# Usage: scripts/bench_smoke.sh [--targets t1,t2,...] [output.json]
#   output.json defaults to bench-out/BENCH_local.json (untracked).
#   --targets filters both the table targets and the criterion targets
#   (perf, columnar_exec, durability) by name, e.g. --targets fig9,sharded.
#
# Table targets are plain reproduction binaries (harness = false) whose
# wall time is recorded; the criterion targets run the vendored criterion
# harness with a reduced measurement budget and report ns/iter per
# benchmark via the CRITERION_JSON hook. Every selected target runs and is
# recorded; the script then exits 1, naming them, if any target failed
# (a table's inline assert! fails its target).
set -euo pipefail

cd "$(dirname "$0")/.."

TABLE_TARGETS=(fig1 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12
               table1 table2 table3 table4 table5 ablation
               sharded serving fleet fleet_faults recovery)
CRITERION_TARGETS=(perf columnar_exec durability)

FILTER=""
OUT=""
while [ $# -gt 0 ]; do
    case "$1" in
        --targets)
            [ $# -ge 2 ] || { echo "--targets needs a comma-separated list" >&2; exit 2; }
            FILTER="$2"
            shift 2
            ;;
        --targets=*)
            FILTER="${1#--targets=}"
            shift
            ;;
        -*)
            echo "unknown option: $1" >&2
            exit 2
            ;;
        *)
            [ -z "$OUT" ] || { echo "unexpected extra argument: $1" >&2; exit 2; }
            OUT="$1"
            shift
            ;;
    esac
done
OUT="${OUT:-bench-out/BENCH_local.json}"
mkdir -p "$(dirname "$OUT")" 2>/dev/null || true

# A typo in --targets must fail loudly, not record an empty baseline.
# Exact string comparison: glob metacharacters in an entry must not
# sneak past validation only to match nothing in selected().
if [ -n "$FILTER" ]; then
    IFS=',' read -ra FILTER_ENTRIES <<<"$FILTER"
    for entry in "${FILTER_ENTRIES[@]}"; do
        known=false
        for target in "${TABLE_TARGETS[@]}" "${CRITERION_TARGETS[@]}"; do
            if [ "$entry" = "$target" ]; then
                known=true
                break
            fi
        done
        if [ "$known" = false ]; then
            echo "unknown target in --targets: '$entry'" >&2
            echo "known targets: ${TABLE_TARGETS[*]} ${CRITERION_TARGETS[*]}" >&2
            exit 2
        fi
    done
fi

# Applies the --targets filter (no filter = keep everything).
selected() {
    local target="$1"
    [ -z "$FILTER" ] && return 0
    case ",$FILTER," in
        *",$target,"*) return 0 ;;
        *) return 1 ;;
    esac
}

echo "== building bench targets =="
cargo bench -p qram-bench --no-run >/dev/null 2>&1

TMP_WALL="$(mktemp)"
TMP_CRIT="$(mktemp)"
TMP_OUT="$(mktemp)"
trap 'rm -f "$TMP_WALL" "$TMP_CRIT" "$TMP_OUT"' EXIT

FAILED=()

# Runs one bench target with its output in $TMP_OUT, records its status
# and wall time, and remembers a failure.
run_target() {
    local target="$1" ok=true start end
    start="$(date +%s.%N)"
    cargo bench -p qram-bench --bench "$target" >"$TMP_OUT" 2>&1 || ok=false
    end="$(date +%s.%N)"
    echo "$target $ok $(echo "$end $start" | awk '{printf "%.3f", $1 - $2}')" >>"$TMP_WALL"
    if [ "$ok" = false ]; then
        FAILED+=("$target")
        tail -n 20 "$TMP_OUT" >&2
    fi
}

for target in "${TABLE_TARGETS[@]}"; do
    selected "$target" || continue
    run_target "$target"
    echo "ran $target"
done

export CRITERION_JSON="$TMP_CRIT" CRITERION_BUDGET_MS="${CRITERION_BUDGET_MS:-60}"
for target in "${CRITERION_TARGETS[@]}"; do
    selected "$target" || continue
    echo "== criterion micro-benchmarks: $target (reduced budget) =="
    run_target "$target"
    grep -E '^(bench:|==)' "$TMP_OUT" || true
done

python3 - "$OUT" "$TMP_WALL" "$TMP_CRIT" <<'EOF'
import json, subprocess, sys

out_path, wall_path, crit_path = sys.argv[1:4]

targets = {}
with open(wall_path) as f:
    for line in f:
        name, ok, secs = line.split()
        targets[name] = {"ok": ok == "true", "wall_seconds": float(secs)}

# Criterion timing rows carry "ns_per_iter"; bench-emitted scalar rows
# (the durability target's speedups and recovery times) carry "scalar"
# and land in their own section.
criterion = []
scalars = {}
with open(crit_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if "scalar" in row:
            scalars[row["id"]] = row["scalar"]
        else:
            criterion.append(row)

commit = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or None

baseline = {
    "schema": "fat-tree-qram-bench-smoke/v2",
    "commit": commit,
    "targets": targets,
    "criterion_ns_per_iter": {c["id"]: c["ns_per_iter"] for c in criterion},
    "scalars": scalars,
}
with open(out_path, "w") as f:
    json.dump(baseline, f, indent=2, sort_keys=True)
    f.write("\n")
print(
    f"wrote {out_path}: {len(targets)} targets, "
    f"{len(criterion)} criterion benches, {len(scalars)} scalars"
)
EOF

if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "failed targets: ${FAILED[*]}" >&2
    exit 1
fi
