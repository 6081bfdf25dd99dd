#!/usr/bin/env bash
# ThreadSanitizer gate for the simulator's host parallelism.
#
# One simulated machine runs on one host thread; src/exec fans
# independent runs out across pool workers (--jobs). This script builds
# the suites that run whole machines concurrently under
# -DGLOCKS_SANITIZE=thread and runs them:
#
#   exec_pool_test          pool/queue/emitter semantics
#   determinism_test        parallel sweeps byte-identical to serial, and
#                           the sweep-resume manifest from pool threads
#   soak_test               whole machines running concurrently on pool
#                           threads (plus checkpoint churn)
#   ckpt_test               archive/manifest units
#   ckpt_equivalence_test   checkpoint/restore round trips
#   mesh_fault_test         mesh link faults: ARQ under loss, dead-link
#                           detours, e2e watchdog escalation
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DGLOCKS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target exec_pool_test determinism_test soak_test \
               ckpt_test ckpt_equivalence_test mesh_fault_test
# --timeout: every suite here runs whole workloads; under TSan on a slow
# host that can legitimately exceed ctest's default 1500 s budget.
ctest --test-dir "$BUILD_DIR" --output-on-failure --timeout 7200 \
      -R '^(exec_pool_test|determinism_test|soak_test|ckpt_test|ckpt_equivalence_test|mesh_fault_test)$'
echo "TSan check passed."
