#!/usr/bin/env bash
# Byte-identity check between two builds: runs the same reports, runs and
# sweeps on each and `cmp`s every pair. Use it to show a refactor or an
# execution-strategy change leaves every output byte unchanged:
#
#   - stdout of bench/fig08_execution_time, fig09_network_traffic,
#     fig10_ed2p and table4_speedups;
#   - `glocksim --csv` and `glocksim --json` for every registry workload
#     under MCS and GLock at 32 cores;
#   - `glocksim --json` at 256 cores (scale 0.1, G-line latency 2) for
#     SCTR under MCS, GLock and TATAS and RAYTR under MCS and GLock —
#     machines whose engine slots and mesh tiles span several 64-bit
#     worklist words, plus SCTR under MCS and GLock with mesh drops and a
#     link death armed (routers skip cycles with no head due there too),
#     and SCTR under MCS and GLock with the faulted perfbench sweep's
#     G-line+mesh plan (guarded GLock units sleep between deadlines);
#   - `glocksim --json` past the single-cycle G-line reach (G-line
#     latency 1, so the reach-bounded token tree is built): SCTR, RAYTR
#     and QSORT under GLock at 64 cores, clean and with the faulted
#     perfbench plan (guarded tree), and RAYTR under GLock at 256 cores;
#   - a clean and a G-line+mesh-faulted `glocks-sweep` CSV, each at
#     --jobs 1 and --jobs 4 (the new build's --jobs 1 and --jobs 4 CSVs
#     must also match each other).
#
# Usage: scripts/compare_outputs.sh OLD_BUILD NEW_BUILD
#   OLD_BUILD, NEW_BUILD  CMake build trees with the tools and the bench
#                         binaries built (cmake --build DIR)
#   OUT=DIR               keep the outputs in DIR (default: a temp dir,
#                         removed on exit)
# Prints one line per case and exits non-zero when any pair differs.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
OLD="$1"
NEW="$2"
if [[ -n "${OUT:-}" ]]; then
  mkdir -p "$OUT"
else
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
fi

BENCHES=(fig08_execution_time fig09_network_traffic fig10_ed2p
         table4_speedups)
for b in old new; do
  dir="$OLD"
  [[ "$b" == new ]] && dir="$NEW"
  for exe in src/tools/glocksim src/tools/glocks-sweep \
             "${BENCHES[@]/#/bench/}"; do
    [[ -x "$dir/$exe" ]] || { echo "missing $dir/$exe" >&2; exit 2; }
  done
done

failed=0
compared=0
# check NAME FILE_A FILE_B
check() {
  compared=$((compared + 1))
  if cmp -s "$2" "$3"; then
    echo "same       $1"
  else
    echo "DIFFERENT  $1 ($2 vs $3)"
    failed=$((failed + 1))
  fi
}

# run_both NAME CMD... : runs CMD (a path relative to the build tree plus
# its arguments) in both builds, stdout to OUT/NAME.{old,new}.
run_both() {
  local name="$1" exe="$2"
  shift 2
  "$OLD/$exe" "$@" > "$OUT/$name.old"
  "$NEW/$exe" "$@" > "$OUT/$name.new"
  check "$name" "$OUT/$name.old" "$OUT/$name.new"
}

for b in "${BENCHES[@]}"; do
  run_both "$b" "bench/$b"
done

workloads="$("$NEW/src/tools/glocksim" --list |
             awk '/^workloads:/ { w = 1; next } /^lock kinds:/ { w = 0 }
                  w { print $1 }')"
for w in $workloads; do
  for lock in mcs glock; do
    for fmt in csv json; do
      run_both "glocksim-$w-$lock.$fmt" src/tools/glocksim \
          --workload "$w" --lock "$lock" --cores 32 --scale 0.5 \
          "--$fmt"
    done
  done
done

for case in SCTR:mcs SCTR:glock SCTR:tatas RAYTR:mcs RAYTR:glock; do
  w="${case%%:*}"
  lock="${case##*:}"
  run_both "glocksim-$w-$lock-256.json" src/tools/glocksim \
      --workload "$w" --lock "$lock" --cores 256 --gline-latency 2 \
      --scale 0.1 --json
done
for lock in mcs glock; do
  run_both "glocksim-SCTR-$lock-256-meshfault.json" src/tools/glocksim \
      --workload SCTR --lock "$lock" --cores 256 --gline-latency 2 \
      --scale 0.1 --faults mesh:drop=1e-4,mesh:kill=1.e@2000 --json
  run_both "glocksim-SCTR-$lock-256-faulted.json" src/tools/glocksim \
      --workload SCTR --lock "$lock" --cores 256 --gline-latency 2 \
      --scale 0.1 --faults drop=0.001,noise=0.0001,mesh:rate=0.0005 --json
done

for w in SCTR RAYTR QSORT; do
  run_both "glocksim-$w-glock-64.json" src/tools/glocksim \
      --workload "$w" --lock glock --cores 64 --scale 0.1 --json
  run_both "glocksim-$w-glock-64-faulted.json" src/tools/glocksim \
      --workload "$w" --lock glock --cores 64 --scale 0.1 \
      --faults drop=0.001,noise=0.0001,mesh:rate=0.0005 --json
done
run_both "glocksim-RAYTR-glock-256-tree.json" src/tools/glocksim \
    --workload RAYTR --lock glock --cores 256 --scale 0.1 --json

GRID=(--all --locks mcs,glock --cores 16,32 --seeds 1,2 --scale 0.5)
FAULTS="drop=1e-3,garble=1e-3,delay=1e-3,noise=1e-4,stuck=1e-4"
FAULTS+=",mesh:drop=1e-4,mesh:kill=1.e@2000"
for jobs in 1 4; do
  run_both "sweep-clean-j$jobs.csv" src/tools/glocks-sweep \
      "${GRID[@]}" --jobs "$jobs"
  run_both "sweep-faulted-j$jobs.csv" src/tools/glocks-sweep \
      "${GRID[@]}" --faults "$FAULTS" --jobs "$jobs"
done
check "sweep-clean --jobs 1 vs 4 (new)" \
    "$OUT/sweep-clean-j1.csv.new" "$OUT/sweep-clean-j4.csv.new"
check "sweep-faulted --jobs 1 vs 4 (new)" \
    "$OUT/sweep-faulted-j1.csv.new" "$OUT/sweep-faulted-j4.csv.new"

echo
if [[ "$failed" -ne 0 ]]; then
  echo "compare_outputs: $failed of $compared cases differ" >&2
  exit 1
fi
echo "compare_outputs: all $compared cases byte-identical"
