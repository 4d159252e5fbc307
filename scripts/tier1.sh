#!/bin/sh
# Tier-1 gate: the standard build + full test suite, then the trace/codec
# surface again under ASan+UBSan (the decoders chew untrusted bytes, so they
# get the sanitizer treatment on every run), then the codec bench, which
# asserts the v2 compression floor.
# Usage: scripts/tier1.sh   (from the repository root)
set -e

# 0. Layering: nothing under src/vm includes a session/ header. The compiled
#    engine's dispatch loop is a template (vm/compiled_loop.hpp) that the
#    session instantiates for its own sink in session/event_source.cpp; the
#    vm library must never name that sink itself.
if grep -rnE '#[[:space:]]*include[[:space:]]*[<"]session/' src/vm; then
  echo "tier1: a file under src/vm includes a session/ header" >&2
  exit 1
fi

# 1. Standard build, all tests.
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# 2. ASan+UBSan on the trace stack and the session layer: codec
#    round-trips, differential sweeps (including replay-vs-live
#    equivalence), the decoder fuzzers and the v2.1
#    corruption/salvage suite (the tests most likely to walk off a buffer),
#    plus the fault-injection differential harness.
#    The workload-zoo suites ride along so every registered memory shape
#    (hash-join scatter, phase-sharp buffers, ...) is exercised under the
#    sanitizers too, and the engine differential suite runs the compiled
#    (threaded-dispatch) engine against the reference interpreter — including the
#    trap-at-N prefix contract and the non-default library policies — with
#    ASan watching the lowered arrays.
#    The page-directory suites (guest memory, UnMA sets, QUAD shadow) ride
#    along too: the directory hands out cached raw page pointers, and a
#    pointer left dangling by a move, clear or shard adoption is exactly
#    what ASan catches. The interpreter's unit suite covers its event
#    emitter (the reference stream the compiled engine is checked against),
#    and its differential suite checks it against an independent reference
#    evaluator. Both engines index host memory (the flat guest arena) by
#    guest address, so both run their memory paths under the sanitizers.
#    The ring / parallel_for_blocks unit suite rides along for the ring's
#    slot storage and the per-block error capture. QUAD's unit suite and its
#    randomized reference-model oracle ride along for the shadow's cells,
#    escape arrays and shard adoption.
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target \
    test_trace test_trace_v2_codec test_trace_offline_differential \
    test_fuzz_decoders test_trace_salvage test_fault_injection \
    test_session test_session_replay test_session_pipeline \
    test_support_metrics test_workload_zoo test_engine_differential \
    test_support_address_set test_support_paged_memory test_quad_shadow \
    test_vm_machine test_vm_differential test_support_concurrency \
    test_quad_tool test_quad_oracle
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R '^(test_trace|test_trace_v2_codec|test_trace_offline_differential|test_fuzz_decoders|test_trace_salvage|test_fault_injection|test_session|test_session_replay|test_session_pipeline|test_support_metrics|test_workload_zoo|test_engine_differential|test_support_address_set|test_support_paged_memory|test_quad_shadow|test_vm_machine|test_vm_differential|test_support_concurrency|test_quad_tool|test_quad_oracle)$'

# 3. ThreadSanitizer on everything that spawns threads: the parallel
#    analysis pipeline (one drain thread per ring, shard merge, drain
#    barrier, push-racing-close shutdown, the abort path that closes and
#    joins mid-run), the SPSC ring / parallel_for_blocks primitives, the
#    metrics registry, parallel trace replay, and the
#    fault-injection harness whose trap path exercises the pipeline's
#    drain sequence. The engine differential suite rides along for its
#    compiled-engine-feeding-the-parallel-pipeline cases. Every run keeps
#    its own ctest log under build-tsan/ctest-logs/, so a suite that fails
#    once leaves its TSan report behind.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
    test_support_concurrency test_support_metrics test_session \
    test_session_replay test_session_pipeline \
    test_trace test_fault_injection test_support_crc32c \
    test_workload_zoo test_trace_offline_differential test_engine_differential
mkdir -p build-tsan/ctest-logs
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    --output-log "build-tsan/ctest-logs/tsan-$(date +%Y%m%dT%H%M%S)-$$.log" \
    -R '^(test_support_concurrency|test_support_metrics|test_session|test_session_replay|test_session_pipeline|test_trace|test_fault_injection|test_support_crc32c|test_workload_zoo|test_trace_offline_differential|test_engine_differential)$'

# 3b. The CLI end to end under ThreadSanitizer: a three-tool parallel run
#     with -metrics and -trace must print, and record, exactly what the
#     serial run does. The session reads the rings' counters into the
#     registry after the drain barrier joined every reader thread, so this
#     leg catches a counter read racing a reader; the trace recorder reads
#     every field of the shared batch records on its reader thread.
cmake --build --preset tsan -j "$(nproc)" --target tquad_cli zoo_gen
TSAN_WORK=build-tsan/cli_work
rm -rf "$TSAN_WORK"
mkdir -p "$TSAN_WORK"
./build-tsan/tools/zoo_gen -workload hashjoin -image "$TSAN_WORK/hashjoin.tqim" \
    > /dev/null
./build-tsan/tools/tquad_cli -image "$TSAN_WORK/hashjoin.tqim" \
    -tools tquad,quad,gprof -pipeline serial -trace "$TSAN_WORK/serial.tqtr" \
    -metrics "json:$TSAN_WORK/serial.json" > "$TSAN_WORK/serial.txt"
./build-tsan/tools/tquad_cli -image "$TSAN_WORK/hashjoin.tqim" \
    -tools tquad,quad,gprof -pipeline parallel:3 -trace "$TSAN_WORK/parallel.tqtr" \
    -metrics "json:$TSAN_WORK/parallel.json" > "$TSAN_WORK/parallel.txt"
sed "s|$TSAN_WORK/parallel.tqtr|$TSAN_WORK/serial.tqtr|" "$TSAN_WORK/parallel.txt" \
    | cmp "$TSAN_WORK/serial.txt" -
cmp "$TSAN_WORK/serial.tqtr" "$TSAN_WORK/parallel.tqtr"
grep -q '"pipeline.batches_published"' "$TSAN_WORK/parallel.json"

# 4. Farm smoke under ASan: the supervisor's fork/exec/waitpid plumbing and
#    the sidecar/manifest codecs run sanitized end to end — a two-worker
#    farm over zoo traces, one of them deliberately corrupted, must
#    quarantine the poison member (exit 3) and still merge the healthy ones.
cmake --build --preset asan-ubsan -j "$(nproc)" --target \
    tquad_farm tquad_cli zoo_gen test_farm_codec
ctest --test-dir build-asan --output-on-failure -R '^test_farm_codec$'
FARM_WORK=build-asan/farm_smoke_work
rm -rf "$FARM_WORK"
mkdir -p "$FARM_WORK"
./build-asan/tools/zoo_gen -workload phased -image "$FARM_WORK/phased.tqim" > /dev/null
./build-asan/tools/tquad_cli -image "$FARM_WORK/phased.tqim" -slice 2000 \
    -trace "$FARM_WORK/a.tqtr" > /dev/null
cp "$FARM_WORK/a.tqtr" "$FARM_WORK/b.tqtr"
printf 'XXXXXXXX' | dd of="$FARM_WORK/b.tqtr" bs=1 seek=0 conv=notrunc 2> /dev/null
farm_status=0
./build-asan/tools/tquad_farm -traces "$FARM_WORK/a.tqtr,$FARM_WORK/b.tqtr" \
    -state "$FARM_WORK/state" -slice 2000 -workers 2 -max-attempts 2 \
    -backoff-ms 10 -out "$FARM_WORK/fleet.out" > "$FARM_WORK/farm.stdout" \
    || farm_status=$?
[ "$farm_status" -eq 3 ] || {
  echo "tier1: farm smoke expected exit 3 (quarantine), got $farm_status" >&2
  exit 1
}
grep -q "1 quarantined" "$FARM_WORK/farm.stdout"
grep -q "fleet bandwidth" "$FARM_WORK/fleet.out"

# 5. Codec bench: fails if v2 is not >= 4x smaller than the raw record
#    volume (records x 28 B of packed fields) on stream, if v2.1 per-block
#    CRC verification costs >= 5% on streaming decode, or if block-parallel
#    aggregation totals differ from the whole range.
./build/bench/bench_trace_codec

# 6. Workload-zoo signature bench: gates every registered workload's
#    measured memory signature against its declared shape and writes
#    BENCH_zoo.json; fails on any gate violation.
./build/bench/bench_workload_signatures

# 7. Every BENCH_*.json in the repository root parses as JSON and carries
#    the host stamp (hw_threads) that makes its numbers comparable.
python3 - BENCH_*.json <<'EOF'
import json
import sys

for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"tier1: {path} does not parse: {err}")
    if not isinstance(doc, dict) or "hw_threads" not in doc:
        sys.exit(f"tier1: {path} has no env stamp (hw_threads)")
EOF

echo "tier1: OK"
