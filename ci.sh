#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#   ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release

echo "==> tests"
cargo test -q

echo "==> clippy (deny warnings)"
cargo clippy --all-targets -- -D warnings -W clippy::or_fun_call

echo "==> rustfmt"
cargo fmt --check

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> pub ratchet (the public API may only shrink)"
# ROADMAP's count of `pub` items over crates/*/src. A change that makes
# items crate-private lowers the ceiling to its new count; none raises it.
PUB_CEILING=745
PUB_COUNT=$(grep -rhE '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use)' crates/*/src | wc -l)
echo "    $PUB_COUNT pub items, ceiling $PUB_CEILING"
[ "$PUB_COUNT" -le "$PUB_CEILING" ]

echo "==> benchmark package (frozen API surface + reference digests)"
# benchmark/ is a workspace of its own, so nothing above compiles it: a
# PR could break the API surface listed in benchmark/README.md unnoticed.
# Its unit tests build it against this checkout; the --quick run checks
# every file_ingest answer against benchmark/expected/digests.json and
# exits non-zero on a mismatch (its timings are a smoke, not a gate).
(cd benchmark && cargo test --offline -q)
if [ "$(nproc)" -ge 2 ]; then
    benchmark/run.sh --quick --workload file_ingest >/dev/null
else
    echo "    benchmark/run.sh needs 2 CPUs: digest check NOT RUN on this host"
fi

echo "==> engine identity (predecoded vs reference ExecProgram, optimized build)"
# `cargo test -q` above ran it unoptimized; the optimized build is the one
# whose inlining and constant folding the benchmark measures, so the
# machine must also agree with itself there on `ExecProgram::build` and
# `ExecProgram::reference` (the IR walk): all 41 workloads x {O0, O1, O2,
# O3} x quantum {1, 64}, and the hand-built register-allocation edge
# kernels — traces, per-thread stats, final memory, faults.
cargo test --release -q -p threadfuser --test engine_identity

echo "==> emulator identity (golden reports, step digests, lock-step pin, optimized build)"
# The same reasoning for the warp emulator: the benchmark measures its
# optimized build, so the golden report grid, the hand-built fallback
# traces and the digest of every emitted step must also hold there. The
# lock-step machine runs the emulator's split machine
# (`threadfuser_machine::simt`), so its pinned counters (`correlation`)
# and its agreement with the analyzer at StaticIpdom on random kernels
# (`proptest_semantics`) are checked on the same build.
cargo test --release -q -p threadfuser --test soa_identity --test step_stream \
    --test correlation --test proptest_semantics

echo "==> paper tables (Table I + Fig. 1 incl. the coop family)"
# Thread-capped smoke of the two catalog-wide paper artifacts: Table I
# must enumerate all 41 workloads (36 paper + 5 coop) and Fig. 1 must
# hold its efficiency-monotonicity assertion on every one of them.
TABLE1_OUT=$(TF_THREADS=64 cargo run --release -q -p threadfuser-bench --bin table1_workloads)
echo "$TABLE1_OUT" | grep -q "coop_lottery"
FIG01_OUT=$(TF_THREADS=64 cargo run --release -q -p threadfuser-bench --bin fig01_efficiency)
echo "$FIG01_OUT" | grep -q "coop_rr"

echo "==> paper figures (thread-capped) and the cross-application table"
# Every remaining artifact bin runs to the end and holds its own
# assertions: the figures and the reconvergence ablation at 64 threads,
# Table II uncapped (its correlation assertion needs the workloads'
# default thread counts; at 64 threads it reads 0.877 against 0.9).
for BIN in fig05_correlation fig06_speedup fig07_hdsearch fig08_skipped fig09_locks \
    fig10_memdiv ablation_reconvergence; do
    TF_THREADS=64 cargo run --release -q -p threadfuser-bench --bin "$BIN" >/dev/null
done
env -u TF_THREADS cargo run --release -q -p threadfuser-bench --bin table2_xapp >/dev/null

echo "==> per-op heap table (thread-capped smoke)"
# The table EXPERIMENTS.md's memory sections quote, at 64 threads so it
# cannot rot: every cold_project and file_ingest op and every sweep_warm
# set-up op must run to the end.
HEAP_OPS_OUT=$(TF_THREADS=64 cargo run --release -q -p threadfuser-bench --bin heap_ops)
echo "$HEAP_OPS_OUT" | grep -q "md5@64 .*analyze"
# sweep_warm's set-up rows: the resident captures that place its peak.
echo "$HEAP_OPS_OUT" | grep -q "sweep_warm .*coop_lottery@64 .*index"
# cold_project's pigz trace and projection rows carry its peak; each cell
# is one value in MB, or the min–max of runs that differ. A row that
# builds no index leaves its `walked` cell empty.
MB_CELL='[0-9]+\.[0-9]{2}(–[0-9]+\.[0-9]{2})?'
for OP in trace project; do
    echo "$HEAP_OPS_OUT" |
        grep -Eq "^cold_project +pigz@64 +$OP +$MB_CELL +$MB_CELL +$MB_CELL *\$"
done
# sweep_warm traces pigz as cold_project does, so its trace row reads the
# same capture.
COLD_TRACE=$(echo "$HEAP_OPS_OUT" | grep -E "^cold_project +pigz@64 +trace " | awk '{print $4, $5}')
SWEEP_TRACE=$(echo "$HEAP_OPS_OUT" | grep -E "^sweep_warm +pigz@64 +trace " | awk '{print $4, $5}')
[ -n "$SWEEP_TRACE" ] && [ "$SWEEP_TRACE" = "$COLD_TRACE" ]
# Index rows count the threads their build walked: one per class, so all
# 64 of pigz@64 (a class per data block) and one of hdsearch_leaf@64.
echo "$HEAP_OPS_OUT" |
    grep -Eq "^sweep_warm +pigz@64 +index +$MB_CELL +$MB_CELL +$MB_CELL +64/64 *\$"
# file_ingest rows count the records each decode walked in full: one per
# body class when the file is clean, so one of hdsearch_leaf@64's 64 on
# its validate, decode and analyze rows.
for OP in validate decode; do
    echo "$HEAP_OPS_OUT" |
        grep -Eq "^file_ingest +hdsearch_leaf@64 +$OP +$MB_CELL +$MB_CELL +$MB_CELL +1/64\$"
done
echo "$HEAP_OPS_OUT" |
    grep -Eq "^file_ingest +hdsearch_leaf@64 +analyze +$MB_CELL +$MB_CELL +$MB_CELL +1/64 +1/64\$"

echo "==> trace CLI usage gate (--chunk-kb 0 must be a usage error)"
set +e
cargo run --release -q -p threadfuser --bin threadfuser -- \
    trace vectoradd --threads 8 --out "${TMPDIR:-/tmp}/tf_zero_chunk.bin" --chunk-kb 0 \
    >/dev/null 2>&1
ZERO_CHUNK_EXIT=$?
set -e
[ "$ZERO_CHUNK_EXIT" -eq 2 ]
[ ! -f "${TMPDIR:-/tmp}/tf_zero_chunk.bin" ]

echo "==> speedup CLI usage gate (--formation resize:8 must be a usage error)"
# The SIMT simulator has no issue-width model: a resized projection would
# silently equal the fixed one, so the CLI refuses it.
set +e
cargo run --release -q -p threadfuser --bin threadfuser -- \
    speedup vectoradd --threads 8 --formation resize:8 >/dev/null 2>&1
RESIZE_SPEEDUP_EXIT=$?
set -e
[ "$RESIZE_SPEEDUP_EXIT" -eq 2 ]

echo "==> speedup CLI usage gate (--cores 0 must be a usage error)"
# A SIMT device has 1..=1024 cores; 0 used to be read as 1.
set +e
cargo run --release -q -p threadfuser --bin threadfuser -- \
    speedup vectoradd --threads 8 --cores 0 >/dev/null 2>&1
ZERO_CORES_EXIT=$?
set -e
[ "$ZERO_CORES_EXIT" -eq 2 ]

echo "==> fuzz_trace (corpus + random-bytes never-panic gate)"
# Fails when any corpus expectation is violated (valid files must decode
# and round-trip, invalid ones must return Err under strict validation),
# when any input panics the decoder, or when a workload capture fails
# decode(encode(t)) == t.
cargo run --release -q -p threadfuser-bench --bin fuzz_trace -- --check

echo "==> serve smoke (job server end-to-end over TCP)"
SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/tf_serve_smoke.XXXXXX")
trap 'rm -rf "$SMOKE_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
# A valid capture (v3 chunked format, the `trace` default) plus a
# truncated (invalid) copy for the decode-error job. Truncating to half
# the file guarantees the v3 footer is gone whatever the file size.
cargo run --release -q -p threadfuser --bin threadfuser -- \
    trace vectoradd --threads 8 --out "$SMOKE_DIR/trace.bin" >/dev/null
head -c "$(( $(wc -c < "$SMOKE_DIR/trace.bin") / 2 ))" \
    "$SMOKE_DIR/trace.bin" > "$SMOKE_DIR/corrupt.bin"
cargo build --release -q -p threadfuser-serve
SERVE_PORT=$((17000 + RANDOM % 2000))
./target/release/threadfuser-serve --listen "127.0.0.1:$SERVE_PORT" --workers 2 \
    > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 50); do
    grep -q "listening on" "$SMOKE_DIR/serve.log" && break
    sleep 0.1
done
grep -q "listening on" "$SMOKE_DIR/serve.log"
# Ten jobs down one connection: analyze, an analyze of a cooperative-
# scheduler workload (the coop family must be servable by name), a
# legacy-shaped sweep (no model/formation fields — the wire back-compat
# proof), a model×formation grid sweep, a strict validate of the corrupt
# file, an analyze at warp size 0 and a speedup on 4294967295 cores (each
# a structured BadRequest, not a dead worker or an aborted server), an
# analyze and a speedup of the valid trace file, and a graceful shutdown.
CAPTURE='{"source":{"Workload":"vectoradd"},"threads":32,"opt":"O3","policy":"Strict","check_shape":false}'
COOP_CAPTURE='{"source":{"Workload":"coop_channel"},"threads":32,"opt":"O3","policy":"Strict","check_shape":false}'
KNOBS='{"warp_size":32,"batching":"Linear","intra_warp_locks":false,"reconvergence":"DynamicIpdom","parallelism":0}'
FILE_CAPTURE="{\"source\":{\"TraceFile\":{\"path\":\"$SMOKE_DIR/trace.bin\",\"workload\":\"vectoradd\"}},\"threads\":null,\"opt\":\"O3\",\"policy\":\"Strict\",\"check_shape\":true}"
WARP0_KNOBS='{"warp_size":0,"batching":"Linear","intra_warp_locks":false,"reconvergence":"DynamicIpdom","parallelism":0}'
exec 3<>"/dev/tcp/127.0.0.1/$SERVE_PORT"
printf '%s\n' \
  "{\"id\":1,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Analyze\":{\"capture\":$CAPTURE,\"config\":$KNOBS}}}" \
  "{\"id\":6,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Analyze\":{\"capture\":$COOP_CAPTURE,\"config\":$KNOBS}}}" \
  "{\"id\":2,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Sweep\":{\"capture\":$CAPTURE,\"config\":$KNOBS,\"warps\":[8,32],\"batchings\":[\"Linear\"]}}}" \
  "{\"id\":5,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Sweep\":{\"capture\":$CAPTURE,\"config\":$KNOBS,\"warps\":[32],\"batchings\":[\"Linear\"],\"models\":[\"IpdomStack\",\"StacklessPcMin\",\"BranchMelding\"],\"formations\":[\"Fixed\",{\"DynamicResize\":{\"min_width\":8}}]}}}" \
  "{\"id\":3,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Validate\":{\"capture\":{\"source\":{\"TraceFile\":{\"path\":\"$SMOKE_DIR/corrupt.bin\",\"workload\":\"vectoradd\"}},\"threads\":null,\"opt\":\"O3\",\"policy\":\"Strict\",\"check_shape\":true}}}}" \
  "{\"id\":7,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Analyze\":{\"capture\":$CAPTURE,\"config\":$WARP0_KNOBS}}}" \
  "{\"id\":10,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Speedup\":{\"capture\":$CAPTURE,\"config\":$KNOBS,\"cores\":4294967295}}}" \
  "{\"id\":8,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Analyze\":{\"capture\":$FILE_CAPTURE,\"config\":$KNOBS}}}" \
  "{\"id\":9,\"tenant\":null,\"stream_obs\":false,\"op\":{\"Speedup\":{\"capture\":$FILE_CAPTURE,\"config\":$KNOBS,\"cores\":16}}}" \
  "{\"id\":4,\"tenant\":null,\"stream_obs\":false,\"op\":\"Shutdown\"}" >&3
SMOKE_RESP=$(timeout 60 head -n 10 <&3)
exec 3<&- 3>&-
echo "$SMOKE_RESP" | grep -q '"Analysis"'   # analyze answered with a report
# The coop job must come back as its own successful analysis (id 6).
echo "$SMOKE_RESP" | grep '"id":6' | grep -q '"Analysis"'
echo "$SMOKE_RESP" | grep -q '"Sweep"'      # sweep answered with rows
echo "$SMOKE_RESP" | grep -q 'StacklessPcMin'   # model grid swept the stackless machine
echo "$SMOKE_RESP" | grep -q 'DynamicResize'    # ... and the resizing formation
echo "$SMOKE_RESP" | grep -q '"Decode"'     # corrupt file → structured decode error
echo "$SMOKE_RESP" | grep '"id":7' | grep -q '"BadRequest"'   # warp 0 → structured refusal
echo "$SMOKE_RESP" | grep '"id":10' | grep -q '"BadRequest"'  # 2^32-1 cores → structured refusal
echo "$SMOKE_RESP" | grep '"id":8' | grep -q '"Analysis"'     # trace file → served report
echo "$SMOKE_RESP" | grep '"id":9' | grep -q '"Speedup"'      # trace file → served projection
echo "$SMOKE_RESP" | grep -q '"Done"'       # shutdown acknowledged
# Clean exit: the daemon must terminate on its own after Shutdown.
SERVE_EXIT=0
for _ in $(seq 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || { SERVE_EXIT=done; break; }
    sleep 0.1
done
[ "$SERVE_EXIT" = done ]
wait "$SERVE_PID"
SERVE_PID=""

echo "==> ci.sh: all green"
