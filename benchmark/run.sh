#!/usr/bin/env bash
# ThreadFuser's one benchmark. Builds the benchmark package against the
# checkout it sits in, then runs it.
#
#   benchmark/run.sh [--seed N] [--window-s S] [--workload W] [--quick] [--repeat]
#       every workload: untraced window, traced pass, verification, all metrics
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is one JSON object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cpus="$(nproc)"
if [ "$cpus" -lt 2 ]; then
    echo "benchmark/run.sh: needs at least 2 CPUs (analyzer and simulators are pinned to 2 workers); nproc = $cpus" >&2
    exit 2
fi

# An unset target dir would land in the repository's own target/ through no
# workspace of ours; keep the benchmark's build products under benchmark/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/tf-benchmark" --dir "$here" "$@"
