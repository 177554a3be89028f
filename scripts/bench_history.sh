#!/usr/bin/env bash
# Appends one benchmark run to results/bench_history.jsonl: the trajectory
# BASELINE.json (a single frozen point) cannot give.
#
#   scripts/bench_history.sh --workload W --seed N [--seconds S] [--trace 0|1]
#                            [--checkout DIR] [--note TEXT]
#
# Runs `benchmark/run.sh --workload W --seed N --seconds S --trace T` of the
# checkout (default: this repository; `--checkout` records another commit,
# e.g. a clone of the parent, into this repository's history), takes the
# final stdout line — the run's JSON result — and appends
#   {rev, dirty, nproc, date, workload, seed, seconds, trace, note, result}
# as one line. Set CARGO_TARGET_DIR to keep two checkouts' builds apart.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
checkout="$repo"
workload="" seed="" seconds=20 trace=0 note=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --checkout) checkout="$(cd "$2" && pwd)" ;;
        --note) note="$2" ;;
        *) echo "bench_history.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
    shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ]; then
    echo "usage: scripts/bench_history.sh --workload W --seed N [--seconds S] [--trace 0|1] [--checkout DIR] [--note TEXT]" >&2
    exit 2
fi
# The fields are spliced into a JSON line below: keep them splice-safe.
case "$seed$seconds$trace" in *[!0-9]*) echo "bench_history.sh: --seed, --seconds and --trace take integers" >&2; exit 2 ;; esac
case "$workload" in *[!a-z_]*) echo "bench_history.sh: no such workload \`$workload\`" >&2; exit 2 ;; esac
case "$note" in *[\"\\]*) echo "bench_history.sh: --note may not contain quotes or backslashes" >&2; exit 2 ;; esac

result="$(bash "$checkout/benchmark/run.sh" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
case "$result" in
    "{"*"}") ;;
    *) echo "bench_history.sh: last stdout line is not a JSON object: $result" >&2; exit 1 ;;
esac

rev="$(git -C "$checkout" rev-parse --short=12 HEAD)"
if [ -n "$(git -C "$checkout" status --porcelain --untracked-files=no)" ]; then dirty=true; else dirty=false; fi
mkdir -p "$repo/results"
printf '{"rev": "%s", "dirty": %s, "nproc": %s, "date": "%s", "workload": "%s", "seed": %s, "seconds": %s, "trace": %s, "note": "%s", "result": %s}\n' \
    "$rev" "$dirty" "$(nproc)" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$workload" "$seed" "$seconds" "$trace" "$note" "$result" \
    >> "$repo/results/bench_history.jsonl"
echo "$result"
