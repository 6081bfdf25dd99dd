// The sweep grid: every (workload x lock kind x core count x seed)
// combination run as an independent simulation and emitted as one CSV
// row. The grid is flattened in loop-nest order (workload outermost,
// seed innermost) and rows are written in that order regardless of which
// worker finishes first, so the CSV is byte-identical for any --jobs
// value; tests/determinism_test.cpp asserts exactly that.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ckpt/manifest.hpp"
#include "common/config.hpp"
#include "locks/factory.hpp"
#include "perf/perf.hpp"

namespace glocks::exec {

struct SweepSpec {
  std::vector<std::string> workloads;
  std::vector<locks::LockKind> lock_kinds;
  std::vector<std::uint32_t> core_counts;
  std::vector<std::uint64_t> seeds = {1};
  double scale = 1.0;
  unsigned jobs = 1;  ///< worker threads; 1 = strictly serial
  /// Fault-injection plan applied to every grid point (--faults). When
  /// enabled, each point derives its own injector seed from (fault.seed,
  /// workload seed), the CSV gains the fault columns, and the guarded
  /// G-line transport replaces the baseline units. Disabled (default)
  /// leaves the CSV byte-identical to the pre-fault format.
  FaultConfig fault;
};

/// Number of grid points (rows) the spec expands to.
std::size_t sweep_size(const SweepSpec& spec);

/// Canonical byte signature of everything about the spec that determines
/// the grid and its row bytes. `jobs` is deliberately excluded — it
/// never changes the output — so a sweep may be resumed with a different
/// worker count. This is the signature a SweepManifest is keyed on.
std::vector<std::uint8_t> sweep_signature(const SweepSpec& spec);

/// Runs the whole grid and streams the CSV (header, then one row per
/// point prefixed with `cores` and `seed` columns) to `os`. Rows appear
/// as the complete grid prefix finishes — never interleaved, always in
/// grid order. Throws on the first failing run (lowest grid index).
/// When `perf_out` is non-null it receives the per-run simulator-perf
/// measurements folded across the grid (--perf); wall_seconds there sums
/// per-run time, so it exceeds elapsed time when jobs overlap.
/// When `manifest` is non-null (opened against sweep_signature(spec)),
/// grid points it already holds are emitted from the manifest instead of
/// re-run, and every freshly finished point is recorded to it — so a killed
/// sweep resumes with the completed prefix skipped and the final CSV
/// byte-identical to an uninterrupted run. Resumed rows contribute no
/// perf measurements (those runs happened in the earlier process).
void run_sweep(const SweepSpec& spec, std::ostream& os,
               perf::SimPerf* perf_out = nullptr,
               ckpt::SweepManifest* manifest = nullptr);

}  // namespace glocks::exec
