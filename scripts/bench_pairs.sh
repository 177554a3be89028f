#!/usr/bin/env bash
# Records alternating parent/change benchmark pairs, then summarises them.
#
#   scripts/bench_pairs.sh --parent REV --workload W [--seeds 11,12] [--pairs N]
#                          [--trace] [--tag TAG]
#
# The parent REV is checked out into a `git worktree` (removed on exit) and
# each side builds its benchmark in its own CARGO_TARGET_DIR. For every
# seed, N pairs run through scripts/bench_history.sh at its default run
# length (the benchmark's 20 s) — parent and this checkout, which side goes
# first alternating from pair to pair — with the notes "parent REV (TAG)"
# and "change (TAG)", so every row lands in results/bench_history.jsonl.
# --trace records traced runs (per-layer rows) instead of untraced ones.
# The last step is scripts/bench_report.sh TAG, which sets the i-th change
# run against the i-th parent run.
#
# The default TAG is "W-REV": pick a fresh one when repeating a pairing.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="" workload="" seeds="11,12" pairs=5 trace=0 tag=""
usage() {
    echo "usage: scripts/bench_pairs.sh --parent REV --workload W [--seeds 11,12] [--pairs N]" >&2
    echo "                              [--trace] [--tag TAG]" >&2
    exit 2
}
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1; shift; continue ;;
        --parent) parent="${2:-}" ;;
        --workload) workload="${2:-}" ;;
        --seeds) seeds="${2:-}" ;;
        --pairs) pairs="${2:-}" ;;
        --tag) tag="${2:-}" ;;
        *) echo "bench_pairs.sh: unknown argument \`$1\`" >&2; usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ -n "$workload" ] || usage
case "$pairs" in "" | *[!0-9]*) echo "bench_pairs.sh: --pairs takes an integer" >&2; exit 2 ;; esac
case "$seeds" in *[!0-9,]* | "") echo "bench_pairs.sh: --seeds takes a comma list of integers" >&2; exit 2 ;; esac

rev="$(git -C "$repo" rev-parse --short=12 "$parent^{commit}")"
tag="${tag:-$workload-$rev}"

parent_dir="$(mktemp -d "${TMPDIR:-/tmp}/tf-bench-parent.XXXXXX")"
rmdir "$parent_dir"
git -C "$repo" worktree add --detach --quiet "$parent_dir" "$rev"
trap 'git -C "$repo" worktree remove --force "$parent_dir"' EXIT

run_parent() {
    CARGO_TARGET_DIR="$parent_dir/benchmark/target" "$repo/scripts/bench_history.sh" \
        --workload "$workload" --seed "$1" --trace "$trace" \
        --checkout "$parent_dir" --note "parent $rev ($tag)" >/dev/null
}
run_change() {
    "$repo/scripts/bench_history.sh" \
        --workload "$workload" --seed "$1" --trace "$trace" \
        --note "change ($tag)" >/dev/null
}

# Odd pairs run the parent first, even pairs the change, so neither side
# always inherits the other's warm caches or the host's drift.
for seed in ${seeds//,/ }; do
    for i in $(seq "$pairs"); do
        echo "bench_pairs.sh: $workload seed $seed pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_parent "$seed"
            run_change "$seed"
        else
            run_change "$seed"
            run_parent "$seed"
        fi
    done
done
"$repo/scripts/bench_report.sh" "$tag"
