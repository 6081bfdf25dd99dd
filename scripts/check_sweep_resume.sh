#!/usr/bin/env bash
# Cross-process checkpoint/restore smoke — the two resume paths the
# in-process suites cannot cover, exercised through the real binaries:
#
#   1. Sweep resume: run a grid uninterrupted; run it again under
#      `timeout -s KILL` with --manifest so the process dies mid-grid
#      (SIGKILL — no destructors, the crash the manifest format is built
#      for); resume with the same command and require the concatenated
#      CSV byte-identical to the uninterrupted one.
#   2. Run restore: checkpoint a glocksim run every N cycles, then
#      --restore each file in a fresh process and require the report
#      CSV byte-identical to the uninterrupted run's.
#   3. scripts/bisect_divergence.sh with one build on both sides must
#      report no divergence.
#
# Usage: scripts/check_sweep_resume.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SWEEP="$BUILD_DIR/src/tools/glocks-sweep"
SIM="$BUILD_DIR/src/tools/glocksim"
WORK="$BUILD_DIR/ckpt-smoke"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target glocks-sweep glocksim
rm -rf "$WORK"
mkdir -p "$WORK"

GRID=(--workloads SCTR,MCTR --locks mcs,glock --cores 8,16
      --seeds 1,2 --scale 0.25 --jobs 2)

# --- 1. sweep resume -------------------------------------------------
"$SWEEP" "${GRID[@]}" > "$WORK/base.csv"

# Kill the manifest-backed sweep mid-grid. If the machine is fast enough
# to finish inside the timeout, the resume below still has to reproduce
# the CSV from a complete manifest — the check stays meaningful.
timeout -s KILL 2 "$SWEEP" "${GRID[@]}" --manifest "$WORK/sweep.manifest" \
  > /dev/null 2> "$WORK/killed.err" || true
[[ -s "$WORK/sweep.manifest" ]] || {
  echo "FAIL: killed sweep left no manifest behind" >&2; exit 1; }

"$SWEEP" "${GRID[@]}" --manifest "$WORK/sweep.manifest" \
  > "$WORK/resumed.csv" 2> "$WORK/resumed.err"
cmp "$WORK/base.csv" "$WORK/resumed.csv" || {
  echo "FAIL: resumed sweep CSV differs from the uninterrupted run" >&2
  exit 1; }

# --- 2. glocksim restore --------------------------------------------
RUN=(--workload SCTR --cores 8 --scale 0.25 --lock glock --csv)
"$SIM" "${RUN[@]}" > "$WORK/run.csv"
"$SIM" "${RUN[@]}" --checkpoint-every 1500 --checkpoint-dir "$WORK" \
  > "$WORK/ckpt-run.csv" 2> "$WORK/ckpt-run.err"
cmp "$WORK/run.csv" "$WORK/ckpt-run.csv" || {
  echo "FAIL: checkpointing perturbed the run" >&2; exit 1; }

found=0
for f in "$WORK"/SCTR-*.ckpt; do
  [[ -e "$f" ]] || break
  found=$((found + 1))
  "$SIM" --restore "$f" --csv > "$WORK/restored.csv"
  cmp "$WORK/run.csv" "$WORK/restored.csv" || {
    echo "FAIL: restore from $f diverged from the uninterrupted run" >&2
    exit 1; }
done
[[ "$found" -ge 1 ]] || {
  echo "FAIL: --checkpoint-every wrote no checkpoint files" >&2; exit 1; }

# --- 3. divergence bisector ------------------------------------------
# The same build on both sides must find no divergence.
OUT="$WORK/bisect" EVERY=1500 scripts/bisect_divergence.sh \
  "$BUILD_DIR" "$BUILD_DIR" -- "${RUN[@]}" || {
  echo "FAIL: the bisector found a divergence between a build and itself" >&2
  exit 1; }

echo "sweep-resume smoke passed ($found checkpoint(s) restored)."
