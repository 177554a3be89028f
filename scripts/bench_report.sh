#!/usr/bin/env bash
# Summarises the benchmark history that scripts/bench_history.sh appends to
# results/bench_history.jsonl.
#
#   scripts/bench_report.sh [--history FILE] [TAG]
#
# 1. Per (workload, seed, trace, note): the run count, failed operations,
#    the median [q1, q3] host steal of the runs that record it, and every
#    metric of BENCHMARK.json the runs report — the end-to-end metrics of
#    untraced runs, the layer rows of traced ones — as median [q1, q3].
#    Runs whose steal exceeds 10 % are listed as STOLEN.
# 2. Per (workload, seed, trace, tag), for pairings recorded with notes of the form
#    "parent ... (TAG)" and "change ... (TAG)": the i-th change run is set
#    against the i-th parent run (file order), and each metric prints how
#    many pairs the change won — better in the metric's BENCHMARK.json
#    direction — with both medians and their relative move. A pair with a
#    STOLEN run is discarded, and the count of discarded pairs is printed.
#
# Metrics a group never reports non-zero (the serve rows of a cold_project
# run, say) are left out. A TAG argument keeps only rows whose note ends in
# "(TAG)". Rows recorded before scripts/bench_history.sh measured steal
# have none and are never STOLEN. Needs jq.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history="$repo/results/bench_history.jsonl"
tag=""
while [ $# -gt 0 ]; do
    case "$1" in
        --history) history="$2"; shift 2 ;;
        -*) echo "usage: scripts/bench_report.sh [--history FILE] [TAG]" >&2; exit 2 ;;
        *) tag="$1"; shift ;;
    esac
done

metrics="$(jq -c '[(.end_to_end + .per_layer)[] | {name, unit, better}]' "$repo/BENCHMARK.json")"

jq -rs --argjson metrics "$metrics" --arg tag "$tag" '
  # Linear-interpolated quantile of a non-empty numeric array.
  def q(p): sort as $s | ((($s | length) - 1) * p) as $i | ($i | floor) as $lo
    | ($i | ceil) as $hi | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
  # Four significant digits.
  def sig: if . == 0 then 0 else (fabs | log10 | floor) as $e
    | if $e >= 3 then pow(10; $e - 3) as $d | (. / $d | round) * $d
      else pow(10; 3 - $e) as $m | (. * $m | round) / $m end end;
  def tag_of: (.note | capture("\\((?<t>[^()]*)\\)\\s*$") | .t) // "";
  def role: .note | split(" ") | .[0];
  def vals($name): map(.result.metrics[$name].value // empty);
  def spread: "\(q(0.5) | sig) [\(q(0.25) | sig), \(q(0.75) | sig)]";
  def head: "\(.workload) seed \(.seed)\(if .trace == 1 then " traced" else "" end)";
  # The steal share above which a run was slowed by the host, not the
  # code: its pairs are discarded by this rule, not by eye.
  def steal_max: 10;
  def stolen: (.steal_pct // 0) > steal_max;
  def steal_of: map(.steal_pct // empty)
    | if length > 0 then ", steal \(q(0.5) | sig) [\(q(0.25) | sig), \(q(0.75) | sig)] %" else "" end;

  map(select($tag == "" or tag_of == $tag)) as $rows
  | ( "# Runs per (workload, seed, trace, note): median [q1, q3]",
      ( $rows | group_by([.workload, .seed, .trace, .note])[]
        | "\n\(.[0] | head) | \(.[0].note) | \(length) runs, \(map(.result.failed // 0) | add) failed ops\(steal_of)",
          ( .[] | select(stolen) | "  STOLEN \(.date): \(.steal_pct) % steal > \(steal_max) %" ),
          ( . as $g | $metrics[] | . as $m | ($g | vals($m.name)) as $v
            | select($v | any(. != 0))
            | "  \($m.name)\t\($v | spread) \($m.unit)" ) ),
      "\n# Change vs parent, paired in file order per (workload, seed, trace, tag)",
      ( $rows | map(select(tag_of != "" and (role == "parent" or role == "change")))
        | group_by([.workload, .seed, .trace, tag_of])[]
        | map(select(role == "parent")) as $p0 | map(select(role == "change")) as $c0
        | [range(0; [($p0 | length), ($c0 | length)] | min) | [$p0[.], $c0[.]]] as $all
        | ($all | map(select(map(stolen) | any | not))) as $kept
        | ($kept | map(.[0])) as $p | ($kept | map(.[1])) as $c | ($kept | length) as $n
        | select($all | length > 0)
        | "\n\(.[0] | head) | (\(.[0] | tag_of)) | \($n) pairs"
          + (($all | length) - $n | if . > 0 then ", \(.) discarded for steal > \(steal_max) %" else "" end),
          ( $metrics[] | . as $m
            | [range(0; $n) | [($p[.].result.metrics[$m.name].value // null),
                               ($c[.].result.metrics[$m.name].value // null)]]
            | map(select(.[0] != null and .[1] != null)) as $pairs
            | select($pairs | flatten | any(. != 0))
            | ($pairs | map(if $m.better == "lower" then .[1] < .[0] else .[1] > .[0] end)
               | map(select(.)) | length) as $wins
            | ($pairs | map(select(.[0] == .[1])) | length) as $ties
            | ($pairs | map(.[0]) | q(0.5)) as $pm | ($pairs | map(.[1]) | q(0.5)) as $cm
            | "  \($m.name)\tchange better in \($wins)/\($pairs | length)"
              + (if $ties > 0 then ", \($ties) equal" else "" end) + "; median \($pm | sig) -> \($cm | sig) \($m.unit)"
              + (if $pm != 0 then " (\((($cm - $pm) / $pm * 100) | sig)%)" else "" end) ) ) )
' "$history"
