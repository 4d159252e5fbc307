#!/bin/sh
# CLI option-validation test: incoherent flag values must fail at parse time
# with exit code 1 and a clear message naming the offending option — before
# any guest execution or file I/O. Also exercises the multi-tool session
# modes the smoke test does not cover.
# Usage: cli_validation.sh <build-tools-dir> <workdir>
set -e
TOOLS="$1"
WORK="$2"
mkdir -p "$WORK"
cd "$WORK"

# expect_error <grep-pattern> -- <command...>
# The command must exit 1 and print the pattern on stderr.
expect_error() {
  pattern="$1"
  shift 2  # drop pattern and the "--" separator
  status=0
  "$@" > /dev/null 2> err.txt || status=$?
  if [ "$status" -ne 1 ]; then
    echo "expected exit 1, got $status: $*" >&2
    cat err.txt >&2
    exit 1
  fi
  if ! grep -q "$pattern" err.txt; then
    echo "missing error message '$pattern' for: $*" >&2
    cat err.txt >&2
    exit 1
  fi
}

"$TOOLS/wfs_gen" -tiny -image wfs.tqim -wav in.wav

# tquad_cli: interval/period/thread/budget flags must be strictly positive.
expect_error "option -slice must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -slice 0
expect_error "option -slice must be a positive integer (got -5)" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -slice -5
expect_error "option -sample must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -sample 0
expect_error "option -threads must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_cli" -replay x.tqtr -threads 0
expect_error "option -budget must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -budget 0
expect_error "unknown -report" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -report bogus
expect_error "unknown -libs policy" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -libs sometimes
expect_error "unknown option '-trace-format'" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -trace t.tqtr -trace-format v3
expect_error "unknown tool 'bogus'" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -tools bogus
expect_error "unknown tool ''" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -tools "tquad,,quad"
expect_error "cannot be combined with -replay" -- \
    "$TOOLS/tquad_cli" -replay run.tqtr -trace out.tqtr
expect_error "needs -image" -- \
    "$TOOLS/tquad_cli" -replay run.tqtr -tools tquad
# A flag the chosen mode would ignore is refused before any file is read:
# the image and traces named here do not exist, and nothing is written.
expect_error "add tquad to -tools" -- \
    "$TOOLS/tquad_cli" -image missing.tqim -tools quad -csv ignored.csv
expect_error "plain -replay has none" -- \
    "$TOOLS/tquad_cli" -replay missing.tqtr -csv ignored.csv
for mode in "" "-image missing.tqim -tools tquad"; do
  # shellcheck disable=SC2086  # $mode is a list of flags
  expect_error "out acts on a live run and cannot be combined with -replay" -- \
      "$TOOLS/tquad_cli" -replay missing.tqtr $mode -out ignored.out
  # shellcheck disable=SC2086
  expect_error "in acts on a live run and cannot be combined with -replay" -- \
      "$TOOLS/tquad_cli" -replay missing.tqtr $mode -in in.wav
done
test ! -e ignored.csv && test ! -e ignored.out
expect_error "unknown -on-trap mode" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -on-trap retry
expect_error "only applies to -replay" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -salvage
expect_error "unknown -on-trap mode" -- \
    "$TOOLS/quad_cli" -image wfs.tqim -on-trap never

# quad_cli validation.
expect_error "option -budget must be a positive integer (got -1)" -- \
    "$TOOLS/quad_cli" -image wfs.tqim -budget -1
expect_error "option -clusters must not be negative (got -2)" -- \
    "$TOOLS/quad_cli" -image wfs.tqim -clusters -2
expect_error "unknown option '-trace-format'" -- \
    "$TOOLS/quad_cli" -image wfs.tqim -trace t.tqtr -trace-format flat

# Multi-tool session: one pass produces all three reports plus a trace.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
    -report flat -slice 2000 -trace multi.tqtr > multi.txt
grep -q "== flat profile ==" multi.txt
grep -q "== quad kernel table" multi.txt
grep -q "producer->consumer bindings" multi.txt
grep -q "== gprof flat profile" multi.txt
test -s multi.tqtr

# Session replay: the same trace replays into the same tquad flat profile.
"$TOOLS/tquad_cli" -replay multi.tqtr -image wfs.tqim -tools tquad,gprof \
    -report flat -slice 2000 > replayed.txt
grep -q "replayed session" replayed.txt
grep -q "== gprof flat profile" replayed.txt
# Identical flat-profile tables, live vs replay (strip the header lines and
# the other tools' sections: compare just the tquad flat profile block).
sed -n '/== flat profile ==/,/^$/p' multi.txt > flat_live.txt
sed -n '/== flat profile ==/,/^$/p' replayed.txt > flat_replay.txt
cmp flat_live.txt flat_replay.txt

# A non-tquad tool subset runs without the bandwidth machinery.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools gprof > gprof_only.txt
grep -q "retired" gprof_only.txt
grep -q "== gprof flat profile" gprof_only.txt
if grep -q "== flat profile ==" gprof_only.txt; then
  echo "tquad report printed without tquad tool" >&2
  exit 1
fi

# --- exit-code contract: 0 ok/truncated, 1 tool error, 2 usage, 3 guest trap ---

# expect_status <want> <stdout-file> -- <command...>
expect_status() {
  want="$1"
  out="$2"
  shift 3  # drop want, stdout file, and the "--" separator
  status=0
  "$@" > "$out" 2> err.txt || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "expected exit $want, got $status: $*" >&2
    cat err.txt >&2
    exit 1
  fi
}

# Usage errors exit 2.
expect_status 2 usage.txt -- "$TOOLS/tquad_cli"
expect_status 2 usage.txt -- "$TOOLS/quad_cli"
expect_status 2 usage.txt -- "$TOOLS/asm_run"

# Malformed -pipeline specs are usage errors (exit 2), validated before any
# guest execution, on both CLIs.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline bogus
grep -q "unknown -pipeline mode 'bogus'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline parallel:x
grep -q "bad -pipeline worker count" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline parallel:
grep -q "bad -pipeline worker count" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline parallel:99999
grep -q "bad -pipeline worker count" err.txt
# An explicit worker count of 0 must not silently fall through to the auto
# (hardware-concurrency) path — it is a usage error, leading zeros included.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline parallel:0
grep -q "bad -pipeline worker count '0'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -pipeline parallel:0000
grep -q "bad -pipeline worker count '0000'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/quad_cli" -image wfs.tqim -pipeline parallel:0
grep -q "bad -pipeline worker count '0'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/quad_cli" -image wfs.tqim -pipeline Serial
grep -q "unknown -pipeline mode" err.txt

# -replay starts at most one thread per trace block, and -threads above 256
# is a usage error caught at parse time, before any file is read or any
# thread started.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -replay missing.tqtr -threads 257
grep -q "option -threads must be at most 256 (got 257)" err.txt

# Malformed -engine names are usage errors (exit 2) on both CLIs, validated
# before any guest execution.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -engine bogus
grep -q "unknown -engine 'bogus'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -engine Compiled
grep -q "unknown -engine" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/quad_cli" -image wfs.tqim -engine jit
grep -q "unknown -engine 'jit'" err.txt

# Malformed -metrics specs are usage errors too.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -metrics xml
grep -q "unknown -metrics format 'xml'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -metrics json:
grep -q "empty -metrics path" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/quad_cli" -image wfs.tqim -metrics yaml
grep -q "unknown -metrics format" err.txt
expect_error "option -heartbeat must not be negative" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -heartbeat -1
expect_error "option -heartbeat must not be negative" -- \
    "$TOOLS/quad_cli" -image wfs.tqim -heartbeat -1
# -heartbeat counts millions of instructions in 64 bits: the largest N whose
# N x 10^6 fits is accepted, one more would wrap into a short period.
for tool in tquad_cli quad_cli; do
  expect_error "option -heartbeat must be at most 18446744073709 (got 18446744073710)" -- \
      "$TOOLS/$tool" -image wfs.tqim -heartbeat 18446744073710
  expect_status 0 hb.txt -- \
      "$TOOLS/$tool" -image wfs.tqim -in in.wav -heartbeat 18446744073709
done

# The clock rate and CPI turn instruction counts into time and bandwidth:
# zero, negative, nan and inf are refused instead of printing inf, nan or
# negative MB/s.
for value in 0 -1 nan inf; do
  expect_error "option -cpu-ghz must be a positive finite number" -- \
      "$TOOLS/tquad_cli" -image wfs.tqim -cpu-ghz "$value"
  expect_error "option -cpi must be a positive finite number" -- \
      "$TOOLS/tquad_cli" -image wfs.tqim -cpi "$value"
done

# Malformed -viz specs are usage errors; a replay without an analysis session
# has no access stream to map.
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -viz svg
grep -q "unknown -viz format 'svg'" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -viz json:
grep -q "empty -viz path" err.txt
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_cli" -replay run.tqtr -viz json
grep -q "needs a profiling session" err.txt
expect_error "option -viz-bucket must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_cli" -image wfs.tqim -viz json -viz-bucket 0

# A valid -pipeline parallel run produces the same reports as the serial
# multi-tool run above, and records a byte-identical trace.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
    -report flat -slice 2000 -trace multi_par.tqtr \
    -pipeline parallel:3 > multi_par.txt
grep -v "trace written to" multi.txt > multi_serial_body.txt
grep -v "trace written to" multi_par.txt > multi_par_body.txt
cmp multi_serial_body.txt multi_par_body.txt
cmp multi.tqtr multi_par.tqtr

# Engine parity at the CLI surface: -engine interp and -engine compiled
# produce byte-identical reports and traces (multi.txt above ran under the
# default, which is the compiled engine).
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
    -report flat -slice 2000 -trace multi_interp.tqtr \
    -engine interp > multi_interp.txt
grep -v "trace written to" multi_interp.txt > multi_interp_body.txt
cmp multi_serial_body.txt multi_interp_body.txt
cmp multi.tqtr multi_interp.tqtr

# A trapping guest: partial reports and exit 3 by default, no reports under
# -on-trap abort, and a graceful TRUNCATED exit 0 under a tight -budget.
cat > trap.s <<'EOF'
.entry main
.func work
    movi   r1, 5
    movi   r2, 0
    divs   r3, r1, r2
    ret
.func main
    movi   r10, 0
spin:
    addi   r10, r10, 1
    sltsi  r0, r10, 50
    brnz   r0, spin
    call   work
    halt
EOF
expect_status 3 trap_run.txt -- "$TOOLS/asm_run" trap.s -image trap.tqim
grep -q "guest trap" err.txt
grep -q "division" err.txt

expect_status 3 trap_report.txt -- "$TOOLS/tquad_cli" -image trap.tqim
grep -q "status: PARTIAL (guest trap:" trap_report.txt
grep -q "in 'work'" trap_report.txt
grep -q "== flat profile ==" trap_report.txt

expect_status 3 trap_abort.txt -- \
    "$TOOLS/tquad_cli" -image trap.tqim -on-trap abort
if grep -q "flat profile" trap_abort.txt; then
  echo "reports printed despite -on-trap abort" >&2
  exit 1
fi
grep -q "guest trap" err.txt

expect_status 3 trap_quad.txt -- "$TOOLS/quad_cli" -image trap.tqim
grep -q "status: PARTIAL" trap_quad.txt

expect_status 0 truncated.txt -- \
    "$TOOLS/tquad_cli" -image trap.tqim -budget 20 -report flat
grep -q "status: TRUNCATED (instruction budget exhausted" truncated.txt

# A trace recorded up to the trap is finalized and replayable.
expect_status 3 trap_traced.txt -- \
    "$TOOLS/tquad_cli" -image trap.tqim -trace trap.tqtr -report flat
test -s trap.tqtr
"$TOOLS/tqtr_doctor" verify trap.tqtr > /dev/null
expect_status 0 trap_replay.txt -- \
    "$TOOLS/tquad_cli" -replay trap.tqtr -image trap.tqim -slice 5000

# Guest-controlled syscall lengths never size a host buffer: a read of a
# terabyte copies what the input has, and a write of a terabyte (its range
# leaves the guest address space) is a guest trap, exit 3 with PARTIAL
# reports, not an allocation failure.
cat > huge_io.s <<'EOF'
.entry main
.global buf 64 16
.func main
    movi   r1, 0
    movi   r2, buf
    movi   r3, 1099511627776
    sys    read
    mov    r10, r1
    movi   r1, 1
    movi   r2, buf
    movi   r3, 1099511627776
    sys    write
    halt
EOF
expect_status 3 huge_io_run.txt -- "$TOOLS/asm_run" huge_io.s -in in.wav -image huge_io.tqim
grep -q "guest write range leaves the guest address space" err.txt
expect_status 3 huge_io_report.txt -- "$TOOLS/tquad_cli" -image huge_io.tqim \
    -in in.wav -tools tquad,quad,gprof -report all
grep -q "status: PARTIAL (guest trap: guest write range leaves the guest address space" \
    huge_io_report.txt
grep -q "== flat profile ==" huge_io_report.txt

# -pipeline auto resolves before the run (to parallel on this host iff it
# has >= 4 hardware threads) and produces the same reports and trace as the
# serial multi-tool run above.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad,quad,gprof \
    -report flat -slice 2000 -trace multi_auto.tqtr \
    -pipeline auto > multi_auto.txt
grep -v "trace written to" multi_auto.txt > multi_auto_body.txt
cmp multi_serial_body.txt multi_auto_body.txt
cmp multi.tqtr multi_auto.tqtr

# auto is consumer-aware: one attached tool with nothing to shard means the
# workers would be pure transport overhead, so auto must say why it stayed
# serial. The note prefix is shared with the small-host branch, so the grep
# holds on any machine.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad -report flat \
    -slice 2000 -pipeline auto > auto_single.txt 2> auto_note.txt
grep -q "note: -pipeline auto selected serial (" auto_note.txt
# ...and the resolved-serial run reports exactly what -pipeline serial does.
"$TOOLS/tquad_cli" -image wfs.tqim -in in.wav -tools tquad -report flat \
    -slice 2000 -pipeline serial > serial_single.txt
cmp serial_single.txt auto_single.txt

# tquad_farm usage errors exit 2, validated before any worker is spawned.
expect_status 2 usage.txt -- "$TOOLS/tquad_farm"
grep -q "missing -traces" err.txt
expect_status 2 usage.txt -- "$TOOLS/tquad_farm" -traces multi.tqtr
grep -q "missing -state" err.txt
expect_error "option -workers must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_farm" -traces multi.tqtr -state farm_state -workers 0
expect_error "option -max-attempts must be a positive integer (got 0)" -- \
    "$TOOLS/tquad_farm" -traces multi.tqtr -state farm_state -max-attempts 0
expect_error "option -shard-blocks must not be negative (got -1)" -- \
    "$TOOLS/tquad_farm" -traces multi.tqtr -state farm_state -shard-blocks -1
expect_status 2 usage.txt -- \
    "$TOOLS/tquad_farm" -traces multi.tqtr -state farm_state -chaos-kill 1.5
grep -q "chaos-kill/-chaos-hang must be in" err.txt
expect_status 2 usage.txt -- "$TOOLS/tquad_farm" -worker -trace multi.tqtr
grep -q "worker needs -trace and -sidecar" err.txt

echo "cli validation: OK"
