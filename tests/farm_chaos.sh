# Fault-tolerance contract of the replay farm, exercised end to end:
#
#   1. a clean farm over healthy traces completes with a fleet report;
#   2. a chaos farm (workers randomly SIGKILLed / hung, one corrupt trace)
#      quarantines the poison member, retries the healthy ones to success,
#      and produces a merged report BYTE-IDENTICAL to the clean run's;
#   3. sharding a v2 trace into block-range jobs merges to the same fleet
#      report as one whole-trace job;
#   4. a farm killed mid-run leaves no worker behind, resumes from its
#      checkpoint manifest, and the final report is byte-identical to an
#      uninterrupted run;
#   5. -resume with mismatched job specs is refused (exit 1).
#
# Usage: farm_chaos.sh <tool-dir> <work-dir>
set -eu
TOOLS="$1"
WORK="$2"
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

fail() {
  echo "farm_chaos: FAIL: $1" >&2
  exit 1
}

# --- fixtures -------------------------------------------------------------
"$TOOLS/zoo_gen" -workload phased -image phased.tqim > /dev/null
"$TOOLS/tquad_cli" -image phased.tqim -slice 2000 -trace t1.tqtr > /dev/null
"$TOOLS/tquad_cli" -image phased.tqim -slice 2000 -trace t2.tqtr > /dev/null
# A poison member: garbage over the header so every open/deserialize fails.
cp t1.tqtr t3.tqtr
printf 'XXXXXXXX' | dd of=t3.tqtr bs=1 seek=0 conv=notrunc 2> /dev/null

# --- 1. clean farm over the healthy fleet ---------------------------------
"$TOOLS/tquad_farm" -traces t1.tqtr,t2.tqtr -image phased.tqim \
    -state clean_state -slice 2000 -workers 2 -out clean.out > clean.stdout
grep -q "status COMPLETE" clean.stdout || fail "clean farm not COMPLETE"
grep -q "fleet bandwidth" clean.out || fail "clean farm wrote no fleet report"

# --- 2. chaos farm: random worker kills + hangs + one corrupt trace -------
status=0
"$TOOLS/tquad_farm" -traces t1.tqtr,t2.tqtr,t3.tqtr -image phased.tqim \
    -state chaos_state -slice 2000 -workers 2 -max-attempts 3 \
    -timeout-ms 1000 -backoff-ms 10 \
    -chaos-kill 0.5 -chaos-hang 0.3 -chaos-seed 7 \
    -out chaos.out > chaos.stdout || status=$?
[ "$status" -eq 3 ] || fail "chaos farm exit $status, want 3 (quarantine)"
grep -q "status DEGRADED" chaos.stdout || fail "chaos farm not DEGRADED"
grep -q "1 quarantined" chaos.stdout || fail "corrupt trace not quarantined"
# The invariant: chaos must not change the merged numbers. The healthy
# traces' fleet report is byte-identical to the clean run's.
cmp clean.out chaos.out || fail "chaos fleet report differs from clean run"
grep -q '"event":"quarantine"' chaos_state/manifest.jsonl || \
  fail "quarantine not recorded in the manifest"
ls chaos_state/job2.attempt*.stderr > /dev/null 2>&1 || \
  fail "no captured stderr for the quarantined job"

# --- 3. shard-vs-whole equivalence ----------------------------------------
# A guest with 20000 stores records a multi-block v2 trace (4096-record
# blocks), so -shard-blocks genuinely splits it.
cat > multi.s <<'EOF'
.entry main
.global buf 4096 64

.func main
    movi   r8, buf
    movi   r11, 0
loop:
    store8 [r8+0], r11
    addi   r11, r11, 1
    sltsi  r0, r11, 20000
    brnz   r0, loop
    halt
EOF
"$TOOLS/asm_run" multi.s -image multi.tqim > /dev/null || \
  fail "asm_run could not build multi.tqim"
"$TOOLS/tquad_cli" -image multi.tqim -slice 2000 -trace multi.tqtr > /dev/null

"$TOOLS/tquad_farm" -traces multi.tqtr -state whole_state -slice 2000 \
    -out whole.out > whole.stdout
"$TOOLS/tquad_farm" -traces multi.tqtr -state shard_state -slice 2000 \
    -shard-blocks 2 -out shard.out > shard.stdout
jobs=$(grep -o '[0-9]* jobs merged' shard.stdout | grep -o '^[0-9]*')
[ "$jobs" -ge 2 ] || fail "sharding produced $jobs job(s); expected several"
# Worker self-metrics depend on the job shape (a sharded run feeds the same
# records through more workers); every section above them must match exactly.
sed '/fleet worker metrics/,$d' whole.out > whole.cmp
sed '/fleet worker metrics/,$d' shard.out > shard.cmp
cmp whole.cmp shard.cmp || fail "sharded fleet report differs from whole run"

# --- 4. checkpoint-resume -------------------------------------------------
"$TOOLS/tquad_farm" -traces multi.tqtr -state full_state -slice 2000 \
    -shard-blocks 1 -out full.out > /dev/null
# Chaos hangs slow the run down (each hung attempt burns the 300ms watchdog
# timeout) so the kill below lands while jobs are still outstanding; hangs
# never change a completed job's sidecar, so the resumed report still has to
# match the uninterrupted run byte for byte.
"$TOOLS/tquad_farm" -traces multi.tqtr -state resume_state -slice 2000 \
    -shard-blocks 1 -workers 1 -backoff-ms 10 \
    -timeout-ms 300 -chaos-hang 0.8 -chaos-seed 3 -out never.out \
    > /dev/null 2>&1 &
pid=$!
i=0
while [ "$i" -lt 200 ]; do
  if grep -q '"event":"done"' resume_state/manifest.jsonl 2> /dev/null; then
    break
  fi
  i=$((i + 1))
  sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true  # may already have finished; that's fine
wait "$pid" 2> /dev/null || true
# Workers die with their supervisor, hung ones included (they ignore
# SIGTERM, so nothing else would reap them). Allow the kernel a moment to
# deliver the death signal.
orphans="tquad_farm -worker .*-sidecar resume_state/"
i=0
while pgrep -f "$orphans" > /dev/null; do
  i=$((i + 1))
  if [ "$i" -ge 40 ]; then
    pkill -9 -f "$orphans" || true
    fail "a worker outlived its SIGKILLed supervisor"
  fi
  sleep 0.05
done
grep -q '"event":"done"' resume_state/manifest.jsonl || \
  fail "supervisor died before any job checkpointed"
"$TOOLS/tquad_farm" -traces multi.tqtr -state resume_state -slice 2000 \
    -shard-blocks 1 -resume -out resume.out > resume.stdout
grep -q "status COMPLETE" resume.stdout || fail "resumed farm not COMPLETE"
cmp full.out resume.out || fail "resumed report differs from uninterrupted run"

# --- 5. -resume refuses mismatched job specs ------------------------------
status=0
"$TOOLS/tquad_farm" -traces t1.tqtr -state resume_state -slice 2000 \
    -resume -out bad.out > /dev/null 2> bad.err || status=$?
[ "$status" -eq 1 ] || fail "mismatched -resume exit $status, want 1"
grep -q "mismatch" bad.err || fail "mismatched -resume gave no diagnostic"

echo "farm_chaos: OK"
