#!/usr/bin/env bash
# Command-line mistakes are reported as such: `--help` prints the flag
# list and exits 0; an unknown flag, an unknown workload or a missing
# --workload prints "<tool>: <message>" (no invariant-violation text)
# and exits 2.
#
# Usage: tests/cli_usage_test.sh GLOCKSIM GLOCKS_SWEEP
set -uo pipefail

GLOCKSIM="$1"
SWEEP="$2"
OUT="$(mktemp)"
ERR="$(mktemp)"
trap 'rm -f "$OUT" "$ERR"' EXIT
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
expect 2 "" "^glocks-sweep: unknown flag --bogus" -- "$SWEEP" --bogus
expect 2 "" "^glocks-sweep: unknown workload NOPE" -- \
  "$SWEEP" --workloads SCTR,NOPE
expect 2 "" "^glocks-sweep: nothing to run" -- "$SWEEP" --locks mcs

if [[ "$failures" != 0 ]]; then
  echo "$failures case(s) failed" >&2
  exit 1
fi
