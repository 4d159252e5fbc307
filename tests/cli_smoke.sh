#!/bin/sh
# End-to-end smoke test of the command-line tools:
#   wfs_gen -> tquad_cli (reports + trace + output) -> quad_cli (dot + csv).
# Usage: cli_smoke.sh <build-tools-dir> <workdir>
set -e
TOOLS="$1"
WORK="$2"
SRCDIR="$(dirname "$0")"
mkdir -p "$WORK"
cd "$WORK"
"$TOOLS/wfs_gen" -tiny -image wfs.tqim -wav in.wav -asm wfs.s
test -s wfs.tqim && test -s in.wav && test -s wfs.s
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -csv flat.csv -trace run.tqtr -out out.wav > tquad.txt
grep -q "flat profile" tquad.txt
grep -q "phases" tquad.txt
grep -q "wav_store" tquad.txt
test -s flat.csv && test -s run.tqtr && test -s out.wav
"$TOOLS/quad_cli" -image wfs.tqim -in in.wav -clusters 4 -dot qdu.dot -csv quad.csv > quad.txt
grep -q "task clustering" quad.txt
grep -q "digraph QDU" qdu.dot
test -s quad.csv
# Traces are TQTR v2 (blocked) and must replay offline with kernel names;
# the block-parallel aggregation gives the same table on any thread count.
"$TOOLS/tquad_cli" -replay run.tqtr -image wfs.tqim -slice 2000 > replay_v2.txt
grep -q "replayed v2 trace" replay_v2.txt
grep -q "wav_store" replay_v2.txt
"$TOOLS/tquad_cli" -replay run.tqtr -image wfs.tqim -slice 2000 -threads 1 \
    > replay_t1.txt
cmp replay_v2.txt replay_t1.txt
# A version-1 trace (the retired flat format: a 32-byte header of magic,
# version 1, kernel count, record size 28, total retired and record count)
# is rejected with a typed error naming the version, by plain replay and by
# session replay alike.
{
  printf 'TQTR\001\000\000\000'                       # magic, version 1
  printf '\002\000\000\000\034\000\000\000'           # 2 kernels, 28 B/record
  printf '\000\000\000\000\000\000\000\000'           # total retired
  printf '\000\000\000\000\000\000\000\000'           # record count
} > run_v1.tqtr
test "$(wc -c < run_v1.tqtr)" -eq 32
for replay_args in "" "-image wfs.tqim -tools tquad"; do
  status=0
  # shellcheck disable=SC2086  # word-split the optional arguments
  "$TOOLS/tquad_cli" -replay run_v1.tqtr $replay_args > /dev/null 2> v1_err.txt \
      || status=$?
  if [ "$status" -ne 1 ]; then
    echo "version-1 replay ($replay_args) exit $status, want 1" >&2
    exit 1
  fi
  grep -q "unsupported TQTR version 1" v1_err.txt
done
# A farm job on it fails cleanly (exit 1, not a signal) and is quarantined,
# whether it aggregates blocks (no image) or replays a session (-image).
for farm_args in "" "-image wfs.tqim"; do
  status=0
  rm -rf v1_farm
  # shellcheck disable=SC2086
  "$TOOLS/tquad_farm" -traces run_v1.tqtr -state v1_farm -max-attempts 1 \
      $farm_args > v1_farm.txt 2>&1 || status=$?
  if [ "$status" -ne 3 ]; then
    echo "farm on a version-1 trace ($farm_args) exit $status, want 3" >&2
    exit 1
  fi
  grep -q "QUARANTINED after 1 attempts (exit 1)" v1_farm.txt
  grep -q "unsupported TQTR version 1" v1_farm/job0.attempt1.stderr
done
# quad_cli records traces too.
"$TOOLS/quad_cli" -image wfs.tqim -in in.wav -trace quad_run.tqtr > /dev/null
test -s quad_run.tqtr
"$TOOLS/tquad_cli" -replay quad_run.tqtr -slice 2000 > replay_quad.txt
grep -q "replayed v2 trace" replay_quad.txt
# tqtr_doctor: a freshly recorded trace verifies clean and summarizes.
"$TOOLS/tqtr_doctor" verify run.tqtr > doctor.txt
grep -q "^ok: v2.1" doctor.txt
"$TOOLS/tqtr_doctor" summarize run.tqtr > summary.txt
grep -q "TQTR v2.1" summary.txt
grep -q "crc32c" summary.txt
# Corrupt one payload byte: verify pinpoints the block, strict replay fails,
# -salvage replays what survives, and repair writes a clean file again.
cp run.tqtr bad.tqtr
printf '\377\377\377\377' | dd of=bad.tqtr bs=1 seek=100 conv=notrunc 2> /dev/null
if "$TOOLS/tqtr_doctor" verify bad.tqtr > doctor_bad.txt; then
  echo "verify accepted a corrupt trace" >&2
  exit 1
fi
grep -q "corrupt: block 0" doctor_bad.txt
if "$TOOLS/tquad_cli" -replay bad.tqtr -slice 2000 > /dev/null 2>&1; then
  echo "strict replay accepted a corrupt trace" >&2
  exit 1
fi
"$TOOLS/tquad_cli" -replay bad.tqtr -slice 2000 -salvage > salvaged.txt
grep -q "salvage: dropped block 0" salvaged.txt
grep -q "replayed v2 trace" salvaged.txt
"$TOOLS/tqtr_doctor" repair bad.tqtr -out repaired.tqtr > /dev/null
"$TOOLS/tqtr_doctor" verify repaired.tqtr > /dev/null

# tqtr_doctor exit-code matrix: 0 ok, 1 corrupt/unreadable, 2 usage.
# expect_exit <want> -- <command...>
expect_exit() {
  want="$1"
  shift 2  # drop want and the "--" separator
  status=0
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "expected exit $want, got $status: $*" >&2
    exit 1
  fi
}
expect_exit 0 -- "$TOOLS/tqtr_doctor" verify run.tqtr
expect_exit 0 -- "$TOOLS/tqtr_doctor" summarize run.tqtr
expect_exit 0 -- "$TOOLS/tqtr_doctor" repair bad.tqtr -out repaired2.tqtr
expect_exit 1 -- "$TOOLS/tqtr_doctor" verify bad.tqtr
expect_exit 1 -- "$TOOLS/tqtr_doctor" verify run_v1.tqtr   # v1: not a v2 file
expect_exit 1 -- "$TOOLS/tqtr_doctor" verify does_not_exist.tqtr
expect_exit 2 -- "$TOOLS/tqtr_doctor"
expect_exit 2 -- "$TOOLS/tqtr_doctor" verify
expect_exit 2 -- "$TOOLS/tqtr_doctor" verify run.tqtr extra_arg
expect_exit 2 -- "$TOOLS/tqtr_doctor" frobnicate run.tqtr
expect_exit 2 -- "$TOOLS/tqtr_doctor" repair bad.tqtr      # repair needs -out

# Parallel pipeline smoke: same reports and byte-identical trace as the
# serial run at the top of this script.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -csv flat_par.csv -trace run_par.tqtr -out out_par.wav \
    -pipeline parallel:2 > tquad_par.txt
grep -v "written to" tquad.txt > tquad_body.txt
grep -v "written to" tquad_par.txt > tquad_par_body.txt
cmp tquad_body.txt tquad_par_body.txt
cmp flat.csv flat_par.csv
cmp run.tqtr run_par.tqtr
cmp out.wav out_par.wav
# Self-observability: -metrics json:path writes valid JSON with the expected
# sections and leaves every report byte untouched (stdout and files compare
# equal to the metrics-off run at the top of this script).
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -csv flat_m.csv -trace run_m.tqtr -out out_m.wav \
    -metrics json:metrics.json > tquad_m.txt
grep -v "written to" tquad.txt > tquad_nowrite.txt
grep -v "written to" tquad_m.txt > tquad_m_nowrite.txt
cmp tquad_nowrite.txt tquad_m_nowrite.txt
cmp flat.csv flat_m.csv
cmp run.tqtr run_m.tqtr
cmp out.wav out_m.wav
python3 - <<'EOF'
import json
m = json.load(open("metrics.json"))
assert set(m) == {"counters", "gauges"}, set(m)
c = m["counters"]
assert c["session.events.access"] > 0, c
assert c["trace.write.records"] > 0, c
assert c["trace.write.bytes"] > 0, c
assert m["gauges"]["session.retired"]["value"] > 0, m["gauges"]
assert m["gauges"]["trace.write.compression_ratio_x1000"]["value"] > 0, m["gauges"]
# The compiled engine's lowering gauges: every lowered routine has at least
# one run, and each adds a past-the-end op that belongs to none.
g = {k: v["value"] for k, v in m["gauges"].items() if k.startswith("vm.lowered.")}
assert set(g) == {"vm.lowered.routines", "vm.lowered.ops", "vm.lowered.runs"}, g
assert 0 < g["vm.lowered.routines"] <= g["vm.lowered.runs"] < g["vm.lowered.ops"], g
EOF
# Stable keys: a second identical run must expose the identical metric name
# set (values may differ only in timing counters; names never).
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -csv flat_m2.csv -trace run_m2.tqtr -out out_m2.wav \
    -metrics json:metrics2.json > /dev/null
python3 - <<'EOF'
import json
a, b = json.load(open("metrics.json")), json.load(open("metrics2.json"))
def keys(m):
    return {(s, k) for s in m for k in m[s]}
assert keys(a) == keys(b), keys(a) ^ keys(b)
EOF
# Parallel run with text metrics to stdout: the metrics block comes strictly
# after the reports (report prefix identical), ring telemetry present.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -pipeline parallel:2 -metrics text > tquad_pm.txt
sed -n '1,/== metrics ==/p' tquad_pm.txt | sed '$d' > tquad_pm_body.txt
grep -v "written to" tquad_pm_body.txt > tquad_pm_cmp.txt
cmp tquad_body.txt tquad_pm_cmp.txt
grep -q "pipeline.batches_published" tquad_pm.txt
grep -q "session.events.access" tquad_pm.txt
# Name drift: every name a three-tool parallel run with a trace emits is
# documented in docs/METRICS.md, and every documented pipeline.* name is
# emitted.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -slice 2000 \
    -pipeline parallel:2 -tools tquad,quad,gprof -trace run_drift.tqtr \
    -metrics json:drift_metrics.json > /dev/null
python3 - "$SRCDIR/../docs/METRICS.md" <<'EOF'
import json, re, sys
m = json.load(open("drift_metrics.json"))
emitted = {name for section in m.values() for name in section}
documented = set(re.findall(r"^\| `([a-z0-9_.]+)` \|", open(sys.argv[1]).read(), re.M))
assert emitted <= documented, sorted(emitted - documented)
pipeline = {name for name in documented if name.startswith("pipeline.")}
assert pipeline <= emitted, sorted(pipeline - emitted)
EOF
# quad_cli metrics + replay-side metrics cover the quad and trace.read names.
"$TOOLS/quad_cli" -image wfs.tqim -in in.wav -metrics json:quad_metrics.json > /dev/null
python3 - <<'EOF'
import json
m = json.load(open("quad_metrics.json"))
assert m["gauges"]["quad.shadow.pages"]["value"] > 0
assert m["gauges"]["quad.unma.in_incl"]["value"] > 0
assert m["gauges"]["quad.bindings"]["value"] > 0
EOF
"$TOOLS/tquad_cli" -replay run.tqtr -image wfs.tqim -slice 2000 \
    -metrics json:replay_metrics.json > /dev/null
python3 - <<'EOF'
import json
m = json.load(open("replay_metrics.json"))
assert m["counters"]["trace.read.bytes"] > 0
assert m["counters"]["trace.read.records"] > 0
EOF
# Heartbeat: pulses go to stderr only, the final pulse carries the status,
# and stdout is still byte-identical to the quiet run at the top.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -csv flat_hb.csv -trace run_hb.tqtr -out out_hb.wav \
    -heartbeat 1 > tquad_hb.txt 2> hb.txt
grep -v "written to" tquad_hb.txt > tquad_hb_body.txt
cmp tquad_body.txt tquad_hb_body.txt
grep -q "heartbeat: done" hb.txt
grep -q "status=ok" hb.txt

# Workload zoo: zoo_gen exports any registered shape; unknown names are
# usage errors (exit 2).
"$TOOLS/zoo_gen" -list > zoo.txt
for w in stream matmul_naive matmul_tiled chase histogram hashjoin phased wfs; do
  grep -q "^$w " zoo.txt
done
grep -q "phase-sharp" zoo.txt
expect_exit 2 -- "$TOOLS/zoo_gen" -workload bogus -image x.tqim
expect_exit 2 -- "$TOOLS/zoo_gen" -workload wfs -image wfs_zoo.tqim  # needs -input
"$TOOLS/zoo_gen" -workload phased -image phased.tqim > /dev/null
"$TOOLS/zoo_gen" -workload wfs -image wfs_zoo.tqim -input wfs_zoo.wav > /dev/null
test -s phased.tqim && test -s wfs_zoo.tqim && test -s wfs_zoo.wav

# -viz json[:path]: the address-map export must leave every report byte
# untouched (compare to the viz-off run) whether it goes to a file or to
# stdout, and the stdout rendering must equal the file rendering.
"$TOOLS/tquad_cli" -image phased.tqim -report all -slice 500 > phased_plain.txt
"$TOOLS/tquad_cli" -image phased.tqim -report all -slice 500 \
    -viz json:map.json -metrics json:viz_metrics.json > phased_viz.txt
grep -v "written to" phased_viz.txt > phased_viz_body.txt
cmp phased_plain.txt phased_viz_body.txt
"$TOOLS/tquad_cli" -image phased.tqim -report all -slice 500 \
    -viz json > phased_viz_stdout.txt
grep '"address_map"' phased_viz_stdout.txt > map_stdout.json
cmp map.json map_stdout.json
grep -v '"address_map"' phased_viz_stdout.txt > phased_viz_stdout_body.txt
cmp phased_plain.txt phased_viz_stdout_body.txt
# Schema: keys sorted and stable at every level, per-kernel accounting
# conserved, and the map total equals the session's delivered access count.
python3 - <<'EOF'
import json
m = json.load(open("map.json"))["address_map"]
assert sorted(m) == list(m), list(m)
names = [k["name"] for k in m["kernels"]]
assert names == sorted(names), names
total = 0
for k in m["kernels"]:
    assert sorted(k) == list(k), list(k)
    assert k["cells"] == sorted(k["cells"]), k["name"]
    cell_sum = sum(reads + writes for _, _, reads, writes in k["cells"])
    assert k["accesses"] == k["stack_accesses"] + cell_sum, k["name"]
    total += k["accesses"]
assert total == m["total_accesses"], (total, m["total_accesses"])
metrics = json.load(open("viz_metrics.json"))
assert total == metrics["counters"]["session.events.access"], total
EOF
# Heatmap shape: the phase-sharp workload shows one disjoint hot written
# address range per phase kernel, in distinct time slices.
python3 - <<'EOF'
import json
m = json.load(open("map.json"))["address_map"]
phases = [k for k in m["kernels"] if k["name"].startswith("phase_")]
assert len(phases) == 4, [k["name"] for k in m["kernels"]]
written = {k["name"]: {b for _, b, _, w in k["cells"] if w} for k in phases}
slices = {k["name"]: {s for s, _, _, _ in k["cells"]} for k in phases}
names = list(written)
for i, a in enumerate(names):
    assert written[a], a
    for b in names[i + 1:]:
        assert not (written[a] & written[b]), (a, b)
        # Phases run back to back: consecutive ones may share the boundary
        # slice, never more.
        assert len(slices[a] & slices[b]) <= 1, (a, b)
EOF
# Replay sessions render the map too, and the wfs pipeline keeps its report
# bytes with -viz on.
"$TOOLS/tquad_cli" -replay run.tqtr -image wfs.tqim -tools tquad -slice 2000 \
    -viz json:replay_map.json > /dev/null
python3 -c "import json; json.load(open('replay_map.json'))"
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -report all -slice 2000 \
    -viz json:wfs_map.json -out out_viz.wav > tquad_viz.txt
grep -v "written to" tquad_viz.txt > tquad_viz_body.txt
cmp tquad_body.txt tquad_viz_body.txt
cmp out.wav out_viz.wav

# Without the flat guest arena: under a 1 GiB address-space limit its 2 GiB
# reservation fails, every guest access takes the page directory, and the
# reports must not change by a byte.
"$TOOLS/zoo_gen" -workload hashjoin -image hashjoin.tqim > /dev/null
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
    -report all > arena_wfs.txt
"$TOOLS/tquad_cli" -image hashjoin.tqim -tools tquad,quad,gprof \
    -report all > arena_hashjoin.txt
(
  ulimit -v 1048576
  "$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
      -report all > no_arena_wfs.txt
  "$TOOLS/tquad_cli" -image hashjoin.tqim -tools tquad,quad,gprof \
      -report all > no_arena_hashjoin.txt
)
cmp arena_wfs.txt no_arena_wfs.txt
cmp arena_hashjoin.txt no_arena_hashjoin.txt

# Error paths: missing image must fail with a message, not crash.
if "$TOOLS/tquad_cli" -image does_not_exist.tqim 2> err.txt; then
  echo "expected failure on missing image" >&2
  exit 1
fi
grep -q "cannot open" err.txt
"$TOOLS/asm_run" "$SRCDIR/../examples/saxpy.s" -profile > saxpy.txt
grep -q "saxpy" saxpy.txt
grep -q "guest: 1024" saxpy.txt
echo "cli smoke: OK"
