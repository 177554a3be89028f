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
#   {rev, dirty, nproc, date, workload, seed, seconds, trace, note,
#    steal_pct, cpu_s, result}
# as one line. `steal_pct` is the host's steal share of all CPU time over
# the run (from the `cpu` line of /proc/stat): time the hypervisor gave
# this machine's vCPUs to someone else. `cpu_s` is the user + system CPU
# seconds the benchmark run's process tree used. The benchmark is built
# before that window opens, so both figures leave the build out; the
# window keeps only run.sh's up-to-date check. A run with high steal was
# slowed by the host, not the code; scripts/bench_report.sh marks it.
# Set CARGO_TARGET_DIR to keep two checkouts' builds apart.
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

# Host CPU ticks from /proc/stat: "steal total", total = user + nice +
# system + idle + iowait + irq + softirq + steal (guest time is already
# inside user and nice).
host_ticks() {
    awk '$1 == "cpu" { print $9, $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9; exit }' /proc/stat
}
# CPU ticks (user + system) of this shell's waited-for children; the
# fields after the parenthesised command name start at field 3.
child_ticks() {
    sed 's/^.*) //' "/proc/$$/stat" | awk '{ print $14 + $15 }'
}

# The build benchmark/run.sh would start with, done here, outside the
# measured window: same manifest, same target directory.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$checkout/benchmark/target}" \
    cargo build --offline --release --quiet --manifest-path "$checkout/benchmark/Cargo.toml" >&2

read -r steal0 total0 < <(host_ticks)
child0="$(child_ticks)"
result="$(bash "$checkout/benchmark/run.sh" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
read -r steal1 total1 < <(host_ticks)
child1="$(child_ticks)"
steal_pct="$(awk -v s="$((steal1 - steal0))" -v t="$((total1 - total0))" \
    'BEGIN { printf "%.3f", (t > 0 ? 100 * s / t : 0) }')"
cpu_s="$(awk -v c="$((child1 - child0))" -v hz="$(getconf CLK_TCK)" 'BEGIN { printf "%.2f", c / hz }')"
case "$result" in
    "{"*"}") ;;
    *) echo "bench_history.sh: last stdout line is not a JSON object: $result" >&2; exit 1 ;;
esac

rev="$(git -C "$checkout" rev-parse --short=12 HEAD)"
if [ -n "$(git -C "$checkout" status --porcelain --untracked-files=no)" ]; then dirty=true; else dirty=false; fi
mkdir -p "$repo/results"
printf '{"rev": "%s", "dirty": %s, "nproc": %s, "date": "%s", "workload": "%s", "seed": %s, "seconds": %s, "trace": %s, "note": "%s", "steal_pct": %s, "cpu_s": %s, "result": %s}\n' \
    "$rev" "$dirty" "$(nproc)" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$workload" "$seed" "$seconds" "$trace" "$note" "$steal_pct" "$cpu_s" "$result" \
    >> "$repo/results/bench_history.jsonl"
echo "$result"
