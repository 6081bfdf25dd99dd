#!/usr/bin/env bash
# Finds the first checkpoint cycle at which two builds' machines differ.
# When scripts/compare_outputs.sh reports a differing case, this narrows
# it from "the outputs differ" to a cycle and a state section:
#
#   1. OLD's glocksim runs the case with --checkpoint-every $EVERY;
#   2. NEW's glocksim --restore's those checkpoints, by bisection. A
#      restore replays NEW from cycle 0 and byte-compares its machine
#      state with OLD's at the checkpoint cycle (docs/checkpoint_format.md);
#   3. the first checkpoint whose restore fails with a state divergence
#      is reported with the FourCC section the verifier names.
#
# Bisection relies on a divergence persisting: the state image carries
# cumulative counters (engine ticks and wakes, traffic, per-thread
# cycles), so once two machines differ, every later checkpoint differs.
# When the last checkpoint restores cleanly, NEW's restored output is
# also compared with OLD's, which catches a divergence after it.
#
# Usage: scripts/bisect_divergence.sh OLD_BUILD NEW_BUILD -- GLOCKSIM_ARGS
#   OLD_BUILD, NEW_BUILD  CMake build trees with glocksim built
#   GLOCKSIM_ARGS         one glocksim run (no --checkpoint-every or
#                         --checkpoint-dir), e.g. --workload SCTR --csv
#   EVERY=N               checkpoint period in cycles (default 10000)
#   OUT=DIR               keep checkpoints and outputs in DIR (default: a
#                         temp dir, removed on exit)
# Exit status: 0 no divergence, 1 divergence found, 2 a run or restore
# failed for another reason, 3 the two builds' checkpoint formats differ.
set -euo pipefail

if [[ $# -lt 3 || "$3" != "--" ]]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD -- GLOCKSIM_ARGS" >&2
  exit 2
fi
OLD_SIM="$1/src/tools/glocksim"
NEW_SIM="$2/src/tools/glocksim"
shift 3
ARGS=("$@")
EVERY="${EVERY:-10000}"
for sim in "$OLD_SIM" "$NEW_SIM"; do
  [[ -x "$sim" ]] || { echo "missing $sim" >&2; exit 2; }
done
if [[ -n "${OUT:-}" ]]; then
  mkdir -p "$OUT"
else
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
fi

# A restore takes everything but the output format from the checkpoint.
FORMAT=()
for a in "${ARGS[@]}"; do
  [[ "$a" == --csv || "$a" == --json ]] && FORMAT=("$a")
done

"$OLD_SIM" "${ARGS[@]}" --checkpoint-every "$EVERY" --checkpoint-dir "$OUT" \
  > "$OUT/old.out" 2> "$OUT/old.err" || {
  echo "OLD run failed:" >&2; cat "$OUT/old.err" >&2; exit 2; }

# Checkpoints are named <workload>-<cycle>.ckpt; order them by cycle.
cycle_of() { local base="${1##*-}"; echo "${base%.ckpt}"; }
mapfile -t CKPTS < <(for f in "$OUT"/*.ckpt; do
                       [[ -e "$f" ]] && echo "$(cycle_of "$f") $f"
                     done | sort -n | cut -d' ' -f2-)
n=${#CKPTS[@]}
if [[ "$n" -eq 0 ]]; then
  echo "the run ended before cycle $EVERY: no checkpoint to restore;" \
       "set a smaller EVERY" >&2
  exit 2
fi

# restore I: NEW restores checkpoint I; sets STATUS to ok, diverged,
# format or error, and leaves stdout/stderr in $OUT/restore-I.{out,err}.
# glocksim exits 3 on a format it does not read and 4 on a divergence.
restore() {
  local code=0
  "$NEW_SIM" --restore "${CKPTS[$1]}" "${FORMAT[@]}" \
      > "$OUT/restore-$1.out" 2> "$OUT/restore-$1.err" || code=$?
  case "$code" in
    0) STATUS=ok ;;
    3) STATUS=format ;;
    4) STATUS=diverged ;;
    *) STATUS=error ;;
  esac
  echo "  cycle $(cycle_of "${CKPTS[$1]}"): $STATUS"
}
# Stops on any outcome bisection cannot use.
expect_verdict() {
  case "$STATUS" in
    format)
      echo "formats differ: NEW cannot read OLD's checkpoints" \
           "(not a divergence)"
      cat "$OUT/restore-$1.err"
      exit 3 ;;
    error)
      echo "restore failed for a reason other than a divergence:"
      cat "$OUT/restore-$1.err"
      exit 2 ;;
  esac
}

echo "OLD wrote $n checkpoint(s), every $EVERY cycles; restoring with NEW:"
last=$((n - 1))
restore "$last"
expect_verdict "$last"
if [[ "$STATUS" == ok ]]; then
  if cmp -s "$OUT/old.out" "$OUT/restore-$last.out"; then
    echo "no divergence: NEW restores OLD's last checkpoint (cycle" \
         "$(cycle_of "${CKPTS[$last]}")) byte-identically and finishes" \
         "with OLD's output"
    exit 0
  fi
  echo "divergence after the last checkpoint (cycle" \
       "$(cycle_of "${CKPTS[$last]}")): the state matches there, the" \
       "final output differs"
  exit 1
fi

# Checkpoint `hi` diverges; find the first one that does.
lo=0
hi=$last
while (( lo < hi )); do
  mid=$(( (lo + hi) / 2 ))
  restore "$mid"
  expect_verdict "$mid"
  if [[ "$STATUS" == diverged ]]; then
    hi=$mid
  else
    lo=$((mid + 1))
  fi
done

msg="$(grep -m1 "restore divergence" "$OUT/restore-$hi.err")"
section="$(grep -o 'section [^;)]*' <<< "$msg" | head -n1 || true)"
echo "first divergence: checkpoint cycle $(cycle_of "${CKPTS[$hi]}")" \
     "${section:+(${section})}"
if (( hi > 0 )); then
  echo "last match:       checkpoint cycle $(cycle_of "${CKPTS[$((hi - 1))]}")"
fi
echo "$msg"
exit 1
