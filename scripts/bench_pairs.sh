#!/usr/bin/env bash
# Alternating parent/change runs of the benchmark on one workload, for a
# before/after record (`BENCH_<topic>.json`).
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed] [seconds]
#        (defaults: 10 pairs, seed 1, 10 seconds a run)
#
# The parent is exported with `git archive` into target/bench_pairs/ and the
# change is the working tree. Each side's benchmark is built with a target
# directory of its own, so neither can pick up the other's artefacts (a
# copied tree that reuses `target/` can compile against stale crates). Both
# executables are built before the first run, then run untraced in
# alternating pairs, odd pairs parent first and even pairs change first,
# then once more each with `--trace 1`.
#
# Prints one JSON object on standard output: every run's result line, the
# median and quartiles of each end-to-end metric that BENCHMARK.json
# declares, the pairs the change won and lost on it, and the traced pair's
# metrics side by side. Progress goes to standard error; each run's log
# and result line stay in target/bench_pairs/runs-<workload>-<pid>/.
# Building the working tree's benchmark rewrites benchmark/Cargo.lock; it
# is put back on exit, as scripts/check.sh does.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n '5,6p' "$0" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}
seconds=${5:-10}
for n in "$pairs" "$seed" "$seconds"; do
    [[ "$n" =~ ^[0-9]+$ ]] || { echo "not a number: $n" >&2; exit 2; }
done

parent=$(git rev-parse --short "$parent_rev^{commit}")
work=$PWD/target/bench_pairs
runs=$work/runs-$workload-$$
mkdir -p "$runs"

trap 'git checkout -q -- benchmark/Cargo.lock' EXIT

# The parent's tree, exported once per commit and reused by later calls.
parent_src=$work/parent-$parent
if [[ ! -d "$parent_src" ]]; then
    export_dir=$(mktemp -d "$work/export.XXXXXX")
    git archive "$parent" | tar -x -C "$export_dir"
    mv "$export_dir" "$parent_src"
fi

# build <source tree> <target dir>: path of the built benchmark executable.
build() {
    echo "==> building the benchmark of $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
    echo "$2/release/benchmark"
}
parent_bin=$(build "$parent_src" "$work/target-parent-$parent")
change_bin=$(build "$PWD" "$work/target-change")

# run <side> <label> <trace>: one run; its result line lands in $runs.
run() {
    local bin=$parent_bin
    [[ "$1" == change ]] && bin=$change_bin
    echo "==> $2: $1 (trace $3)" >&2
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$3" \
        2>"$runs/$1-$2.log" | tail -n 1 >"$runs/$1-$2.json" || true
    # A run that fails its gate prints no result line; record that.
    [[ -s "$runs/$1-$2.json" ]] || echo '{"correct": false, "metrics": {}}' >"$runs/$1-$2.json"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run parent "$i" 0
        run change "$i" 0
    else
        run change "$i" 0
        run parent "$i" 0
    fi
done
run parent traced 1
run change traced 1

side_runs() {
    local files=()
    for ((i = 1; i <= pairs; i++)); do files+=("$runs/$1-$i.json"); done
    jq -s '.' "${files[@]}"
}

jq -n \
    --arg parent "$parent" \
    --arg change "$(git rev-parse --short HEAD) + working tree" \
    --arg workload "$workload" \
    --argjson seed "$seed" \
    --argjson seconds "$seconds" \
    --argjson pairs "$pairs" \
    --argjson declared "$(jq '.end_to_end' BENCHMARK.json)" \
    --argjson parent_runs "$(side_runs parent)" \
    --argjson change_runs "$(side_runs change)" \
    --argjson parent_traced "$(cat "$runs/parent-traced.json")" \
    --argjson change_traced "$(cat "$runs/change-traced.json")" '
    # Median and quartiles by the nearest-rank rule on the sorted values.
    def q($p): sort | .[((length - 1) * $p | round)];
    def summary: map(select(. != null)) | if . == [] then null else [q(0.5), q(0.25), q(0.75)] end;
    # One value per run, null where a run has none, so pair i stays pair i.
    def values($runs; $m): [$runs[] | .metrics[$m].value];
    def better($d; $x; $y): if $d.better == "lower" then $x < $y else $x > $y end;
    {
        parent: $parent,
        change: $change,
        workload: $workload,
        seed: $seed,
        seconds: $seconds,
        pairs: $pairs,
        order: "odd pairs parent first, even pairs change first",
        end_to_end: ($declared | map({
            key: .name,
            value: (. as $d
                | values($parent_runs; $d.name) as $p
                | values($change_runs; $d.name) as $c
                | [range(0; $pairs) | select($p[.] != null and $c[.] != null)] as $both
                | {
                    unit: $d.unit,
                    better: $d.better,
                    bound: $d.bound,
                    parent_median_q1_q3: ($p | summary),
                    change_median_q1_q3: ($c | summary),
                    pairs_won: [$both[] | select(better($d; $c[.]; $p[.]))] | length,
                    pairs_lost: [$both[] | select(better($d; $p[.]; $c[.]))] | length,
                    parent_runs: $p,
                    change_runs: $c
                })
        }) | from_entries),
        runs: {
            parent: ($parent_runs | map({correct, attempted, failed})),
            change: ($change_runs | map({correct, attempted, failed}))
        },
        traced_pair: {
            correct: [$parent_traced.correct, $change_traced.correct],
            attempted: [$parent_traced.attempted, $change_traced.attempted],
            failed: [$parent_traced.failed, $change_traced.failed],
            metrics: ($change_traced.metrics | keys_unsorted | map({
                key: .,
                value: {
                    unit: $change_traced.metrics[.].unit,
                    parent: $parent_traced.metrics[.].value,
                    change: $change_traced.metrics[.].value
                }
            }) | from_entries)
        }
    }'
echo "==> run logs: $runs" >&2
