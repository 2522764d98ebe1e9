#!/usr/bin/env bash
# Same-host A/B of the end-to-end benchmark (perfbench): a base commit
# against the working tree, run in alternating pairs.
#
#   scripts/ab.sh <workload> <pairs>
#
# Every run lasts 20 s. Pair i runs both sides with seed i; on odd seeds
# the base runs first, on even seeds the change does, so drift on a
# shared host falls on both sides alike. The base is HEAD while the working tree has changes, else
# HEAD~1; set AB_BASE to pick another revision. The base tree is exported
# with `git archive` (no worktree, nothing registered in .git) and both
# sides are built with `cargo build --release --offline` into AB_DIR
# (default: ${TMPDIR:-/tmp}/brisk-ab), which later runs reuse.
#
# Output: every run's JSON line (in AB_DIR/runs/), then one row per
# end-to-end metric of BENCHMARK.json: base and change medians, the
# change in percent, the base's IQR/median and how many pairs the change
# won (better by the metric's direction). Exits 1 if any run was not
# `correct: true`.
set -euo pipefail

usage() {
    echo "usage: $0 <workload> <pairs>" >&2
    exit 2
}
[ $# -eq 2 ] || usage
workload=$1
pairs=$2
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

repo=$(git rev-parse --show-toplevel)
cd "$repo"
if [ -z "${AB_BASE:-}" ]; then
    if git diff --quiet HEAD --; then AB_BASE=HEAD~1; else AB_BASE=HEAD; fi
fi
base_rev=$(git rev-parse --short "$AB_BASE")
dir=${AB_DIR:-${TMPDIR:-/tmp}/brisk-ab}
base_src=$dir/base-$base_rev
mkdir -p "$dir/runs"

if [ ! -f "$base_src/perfbench/Cargo.toml" ]; then
    echo "ab: exporting $base_rev to $base_src" >&2
    rm -rf "$base_src"
    mkdir -p "$base_src"
    git archive "$base_rev" | tar -x -C "$base_src"
fi
echo "ab: building base ($base_rev) and change perfbench" >&2
CARGO_TARGET_DIR=$dir/target-base cargo build --release --offline --quiet \
    --manifest-path "$base_src/perfbench/Cargo.toml"
CARGO_TARGET_DIR=$dir/target-change cargo build --release --offline --quiet \
    --manifest-path "$repo/perfbench/Cargo.toml"

# run <side> <seed>: one benchmark run from that side's tree; its JSON
# line goes to runs/<workload>-<side>-<seed>.json.
run() {
    local side=$1 seed=$2 src bin
    if [ "$side" = base ]; then src=$base_src; else src=$repo; fi
    bin=$dir/target-$side/release/perfbench
    echo "ab: $workload seed $seed $side" >&2
    (cd "$src" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0) | tail -n 1 \
        >"$dir/runs/$workload-$side-$seed.json" || true
}

for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run base "$seed"
        run change "$seed"
    else
        run change "$seed"
        run base "$seed"
    fi
done

python3 - "$repo/BENCHMARK.json" "$dir/runs" "$workload" "$pairs" <<'EOF'
import json
import statistics
import sys

bench, runs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(bench))["end_to_end"]
ok = True
res = {"base": [], "change": []}
for side in res:
    for seed in range(1, pairs + 1):
        try:
            line = json.load(open(f"{runs}/{workload}-{side}-{seed}.json"))
        except (OSError, ValueError):
            line = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        ok &= line["correct"] is True
        res[side].append(line)


def values(side, name):
    return [r["metrics"].get(name, {}).get("value") for r in res[side]]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


print(f"workload {workload}: {pairs} pairs, base first on odd seeds")
for side in res:
    c = [r["correct"] for r in res[side]]
    f = sum(r["failed"] for r in res[side])
    a = sum(r["attempted"] for r in res[side])
    print(f"  {side:<6} correct {sum(c)}/{len(c)}  failed {f}/{a}")
print(f"  {'metric':<22} {'base':>12} {'change':>12} {'delta':>8} {'base IQR/med':>12} {'wins':>6}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    b, c = values("base", name), values("change", name)
    if None in b or None in c:
        continue
    mb, mc = statistics.median(b), statistics.median(c)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    delta = 100.0 * (mc - mb) / mb if mb else 0.0
    spread = iqr(b) / mb if mb else 0.0
    print(f"  {name:<22} {mb:>12.4g} {mc:>12.4g} {delta:>+7.1f}% {spread:>12.3f} {wins:>3}/{pairs}")
sys.exit(0 if ok else 1)
EOF
