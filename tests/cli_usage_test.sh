#!/usr/bin/env bash
# Command-line mistakes are reported as such: `--help` prints the flag
# list and exits 0; an unknown flag, an unknown workload, a missing
# --workload, a machine CmpConfig::validate rejects or a malformed
# --faults spec prints "<tool>: <message>" (no invariant-violation text)
# and exits 2. A chip past the single-cycle G-line reach runs: it gets
# the hierarchical G-line network without asking. A --restore of a
# checkpoint whose format version this build does not read exits 3.
#
# Usage: tests/cli_usage_test.sh GLOCKSIM GLOCKS_SWEEP
set -uo pipefail

GLOCKSIM="$1"
SWEEP="$2"
OUT="$(mktemp)"
ERR="$(mktemp)"
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT" "$ERR" "$CKPT_DIR"' EXIT
failures=0

# expect CODE STDOUT_PATTERN STDERR_PATTERN -- COMMAND...
# An empty pattern means that stream must be empty.
expect() {
  local code="$1" out_pat="$2" err_pat="$3"
  shift 4
  "$@" >"$OUT" 2>"$ERR"
  local got=$?
  local ok=1
  [[ "$got" == "$code" ]] || ok=0
  for pair in "$OUT:$out_pat" "$ERR:$err_pat"; do
    local file="${pair%%:*}" pat="${pair#*:}"
    if [[ -z "$pat" ]]; then
      [[ -s "$file" ]] && ok=0
    else
      grep -qE -- "$pat" "$file" || ok=0
    fi
  done
  if grep -q "invariant violated" "$ERR"; then ok=0; fi
  if [[ "$ok" == 0 ]]; then
    echo "FAIL: $* (exit $got, want $code)" >&2
    sed 's/^/  stdout: /' "$OUT" | head -5 >&2
    sed 's/^/  stderr: /' "$ERR" | head -5 >&2
    failures=$((failures + 1))
  else
    echo "ok: $*"
  fi
}

expect 0 "--workload NAME" "" -- "$GLOCKSIM" --help
expect 0 "--workloads A,B" "" -- "$SWEEP" --help
expect 2 "" "^glocksim: unknown flag --bogus" -- "$GLOCKSIM" --bogus
expect 2 "" "^glocksim: unknown workload NOPE" -- \
  "$GLOCKSIM" --workload NOPE
expect 2 "" "^glocksim: --workload or --replay is required" -- \
  "$GLOCKSIM" --lock mcs
expect 2 "" "^glocksim: --cores expects a non-negative integer" -- \
  "$GLOCKSIM" --workload SCTR --cores many
expect 2 "" "^glocksim: need at least one core" -- \
  "$GLOCKSIM" --workload SCTR --cores 0
expect 2 "" "^glocksim: --faults: unknown G-line key 'bogus'" -- \
  "$GLOCKSIM" --workload SCTR --faults bogus=1
expect 2 "" "^glocksim: --faults: 'abc' is not a number" -- \
  "$GLOCKSIM" --workload SCTR --faults drop=abc
expect 0 "^workload SCTR" "" -- \
  "$GLOCKSIM" --workload SCTR --lock mcs --cores 64 --scale 0.05
# A checkpoint stamped with format version 9 (the header's u32 at byte 8).
"$GLOCKSIM" --workload SCTR --lock mcs --cores 4 --scale 0.05 \
  --checkpoint-every 500 --checkpoint-dir "$CKPT_DIR" >/dev/null 2>&1
CKPT="$(ls "$CKPT_DIR"/*.ckpt 2>/dev/null | head -n1)"
if [[ -n "$CKPT" ]]; then
  printf '\x09\x00\x00\x00' |
    dd of="$CKPT" bs=1 seek=8 conv=notrunc status=none
fi
expect 3 "" "^glocksim: .*format version 9" -- \
  "$GLOCKSIM" --restore "${CKPT:-missing.ckpt}"
expect 2 "" "^glocks-sweep: unknown flag --bogus" -- "$SWEEP" --bogus
expect 2 "" "^glocks-sweep: unknown workload NOPE" -- \
  "$SWEEP" --workloads SCTR,NOPE
expect 2 "" "^glocks-sweep: nothing to run" -- "$SWEEP" --locks mcs
expect 2 "" "^glocks-sweep: need at least one core" -- \
  "$SWEEP" --workloads SCTR --cores 32,0
expect 2 "" "^glocks-sweep: --faults: unknown G-line key 'bogus'" -- \
  "$SWEEP" --workloads SCTR --faults bogus=1
expect 2 "" "^glocks-sweep: --faults: 'abc' is not a number" -- \
  "$SWEEP" --workloads SCTR --faults drop=abc

if [[ "$failures" != 0 ]]; then
  echo "$failures case(s) failed" >&2
  exit 1
fi
