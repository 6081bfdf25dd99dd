#!/usr/bin/env bash
# Simulator-throughput smoke: runs bench/sim_throughput at reduced scale
# and compares the event-kernel speedup and skip fraction against the
# committed baseline (BENCH_sim_throughput.json, recorded at scale 0.25,
# the scale CI runs).
#
# The gate is deliberately generous — CI machines vary wildly in clock
# speed and load, so absolute Mcycles/s is not checked at all. What must
# hold on any machine:
#
#   1. the event kernel and the serial reference produced identical
#      results ("identical": true — a correctness bug, not a perf one),
#   2. the measured speedup is at least MIN_SPEEDUP (default: 60% of the
#      baseline's speedup, floored at 1.5x) — catches a regression that
#      quietly turns the event kernel back into tick-everything.
#
# Usage: scripts/bench_throughput.sh [build-dir] [scale]
#        MIN_SPEEDUP=1.5 scripts/bench_throughput.sh build 0.25
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SCALE="${2:-0.25}"
BASELINE="BENCH_sim_throughput.json"
OUT="$BUILD_DIR/BENCH_sim_throughput.smoke.json"

if [[ ! -x "$BUILD_DIR/bench/sim_throughput" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target sim_throughput
fi

"$BUILD_DIR/bench/sim_throughput" --scale "$SCALE" --out "$OUT"

json_field() {  # json_field FILE KEY -> scalar value
  sed -n "s/^ *\"$2\": \([^,]*\),*$/\1/p" "$1" | head -1
}

identical="$(json_field "$OUT" identical)"
speedup="$(json_field "$OUT" speedup)"
base_speedup="$(json_field "$BASELINE" speedup)"

# Floor: 60% of the committed baseline's speedup, never below 1.5.
min="${MIN_SPEEDUP:-$(awk -v b="$base_speedup" \
      'BEGIN { m = b * 0.6; if (m < 1.5) m = 1.5; printf "%.2f", m }')}"

echo
echo "perf-smoke: identical=$identical speedup=${speedup}x" \
     "(baseline ${base_speedup}x, floor ${min}x)"

if [[ "$identical" != "true" ]]; then
  echo "FAIL: event kernel diverged from the serial reference" >&2
  exit 1
fi
if ! awk -v s="$speedup" -v m="$min" 'BEGIN { exit !(s >= m) }'; then
  echo "FAIL: speedup ${speedup}x below the ${min}x floor" >&2
  exit 1
fi

echo "perf-smoke passed."
