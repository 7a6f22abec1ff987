#!/bin/sh
# Alternating parent/change pairs of the repo benchmark (`benchmark/`,
# contract in BENCHMARK.json) and its `compare` table — the procedure
# behind every performance claim in CHANGES.md.
#
# Usage: scripts/bench_pairs.sh <parent-ref> [pairs=10] [workload…]
#   SEED=n             benchmark seed (default 1)
#   BENCH_PAIRS_DIR=d  where checkouts, builds and results go
#                      (default target/bench_pairs, which .gitignore covers)
#
# The parent is exported into its own checkout (`git archive`, so no
# worktree is registered) and each side is built into its own
# CARGO_TARGET_DIR. Every pair runs both sides with identical flags,
# untraced, one process per run; the side that goes first alternates.
# Writes parent.json and change.json (`{"runs":[…]}` of the runs' result
# lines) and prints `compare parent.json change.json`, whose exit
# status — non-zero on any `worse` — is the script's. Run nothing else
# meanwhile: the host has few cores.
set -eu
parent=${1:?usage: scripts/bench_pairs.sh <parent-ref> [pairs=10] [workload…]}
pairs=${2:-10}
shift
[ $# -gt 0 ] && shift
workloads=${*:-point_small point_large bulk_catalog async_fanout replica_mixed}
seed=${SEED:-1}

cd "$(dirname "$0")/.."
dir=${BENCH_PAIRS_DIR:-target/bench_pairs}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git archive "$parent" | tar -x -C "$dir/parent"
CARGO_TARGET_DIR=$dir/target-parent \
    cargo build --release --quiet --manifest-path "$dir/parent/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$dir/target-change \
    cargo build --release --quiet --manifest-path benchmark/Cargo.toml

# one_run <side> <workload>: appends the run's result line, tagged the
# way `compare` reads it, to the side's list.
one_run() {
    "$dir/target-$1/release/xivm_benchmark" --workload "$2" --seed "$seed" --trace 0 \
        >"$dir/last.out" || echo "# $1 $2: run exited non-zero" >&2
    tail -n 1 "$dir/last.out" |
        sed "s/^{/{\"workload\":\"$2\",\"seed\":$seed,\"trace\":0,/" >>"$dir/$1.runs"
}

: >"$dir/parent.runs"
: >"$dir/change.runs"
pair=1
while [ "$pair" -le "$pairs" ]; do
    for w in $workloads; do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            one_run "$side" "$w"
        done
        echo "# pair $pair/$pairs  $w" >&2
    done
    pair=$((pair + 1))
done

for side in parent change; do
    { printf '{"runs":[\n'; paste -sd, "$dir/$side.runs"; printf ']}\n'; } >"$dir/$side.json"
done
echo "# results: $dir/parent.json $dir/change.json" >&2
"$dir/target-change/release/xivm_benchmark" compare "$dir/parent.json" "$dir/change.json"
