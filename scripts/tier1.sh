#!/bin/sh
# Tier-1 gate: the standard build + full test suite, then the trace/codec
# surface again under ASan+UBSan (the decoders chew untrusted bytes, so they
# get the sanitizer treatment on every run), then the codec bench, which
# asserts the v2-vs-v1 compression floor.
# Usage: scripts/tier1.sh   (from the repository root)
set -e

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
#    (fused-op) engine against the reference interpreter — including the
#    trap-at-N prefix contract and the non-default library policies — with
#    ASan watching the lowered arrays.
#    The page-directory suites (guest memory, UnMA sets, QUAD shadow) ride
#    along too: the directory hands out cached raw page pointers, and a
#    pointer left dangling by a move, clear or shard adoption is exactly
#    what ASan catches. The interpreter's unit suite covers its event
#    emitter (the reference stream the compiled engine is checked against).
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target \
    test_trace test_trace_v2_codec test_trace_offline_differential \
    test_fuzz_decoders test_trace_salvage test_fault_injection \
    test_session test_session_replay test_session_pipeline \
    test_support_metrics test_workload_zoo test_engine_differential \
    test_support_address_set test_support_paged_memory test_quad_shadow \
    test_vm_machine
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R '^(test_trace|test_trace_v2_codec|test_trace_offline_differential|test_fuzz_decoders|test_trace_salvage|test_fault_injection|test_session|test_session_replay|test_session_pipeline|test_support_metrics|test_workload_zoo|test_engine_differential|test_support_address_set|test_support_paged_memory|test_quad_shadow|test_vm_machine)$'

# 3. ThreadSanitizer on everything that spawns threads: the parallel
#    analysis pipeline (rings, doorbells, shard merge, drain barrier,
#    push-racing-close shutdown), the thread pool / SPSC ring primitives,
#    the metrics thread-sink fold, parallel trace replay, and the
#    fault-injection harness whose trap path exercises the pipeline's
#    abort/drain sequence. The engine differential suite rides along for
#    its compiled-engine-feeding-the-parallel-pipeline cases.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
    test_support_thread_pool test_support_metrics test_session \
    test_session_replay test_session_pipeline \
    test_trace test_fault_injection test_support_crc32c \
    test_workload_zoo test_trace_offline_differential test_engine_differential
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R '^(test_support_thread_pool|test_support_metrics|test_session|test_session_replay|test_session_pipeline|test_trace|test_fault_injection|test_support_crc32c|test_workload_zoo|test_trace_offline_differential|test_engine_differential)$'

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

# 5. Codec bench: fails if v2 is not >= 4x smaller than v1 on stream or if
#    v2.1 per-block CRC verification costs >= 5% on streaming decode.
./build/bench/bench_trace_codec

# 6. Workload-zoo signature bench: gates every registered workload's
#    measured memory signature against its declared shape and writes
#    BENCH_zoo.json; fails on any gate violation.
./build/bench/bench_workload_signatures

echo "tier1: OK"
