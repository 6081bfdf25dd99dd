// System-level checkpoint/restore orchestration.
//
// A checkpoint file is one archive (ckpt/archive.hpp): a kMeta section
// holding the pause cycle plus the full RunSpec, followed by the machine
// sections CmpSystem::save_state writes.
//
// Restore model (docs/checkpoint_format.md): simulated threads are C++
// coroutines, whose frames are not portably serializable, so a restore
// does not load the machine sections into a cold machine. Instead it
// REPLAYS the spec's workload from cycle 0 to the checkpoint cycle —
// exact by the determinism contract — then re-serializes the replayed
// machine and verifies it byte-for-byte against the archive. Any
// mismatch is a kStateDivergence error naming the first differing
// section; a verified restore then runs on to completion and returns a
// RunResult bit-identical to an uninterrupted run. The machine sections
// are still real state (component save/load pairs are exercised directly
// by tests/ckpt_test.cpp); at system level they are the divergence
// oracle and the forensic record of the paused machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "harness/runner.hpp"

namespace glocks::ckpt {

/// Everything needed to rebuild, by deterministic replay, the run a
/// checkpoint was taken from. The policy stored here is the *resolved*
/// one (after any --auto-assign profiling), so a restore never repeats
/// the profiling phase.
struct RunSpec {
  std::string workload;  ///< registry name; trace replays are rejected
  double scale = 1.0;
  std::uint64_t seed = 1;
  CmpConfig cmp;
  harness::LockPolicy policy;
  power::EnergyParams energy;
};

/// Serializes/deserializes a RunSpec inside an open archive section.
void save_run_spec(ArchiveWriter& a, const RunSpec& spec);
RunSpec load_run_spec(ArchiveReader& a);

/// The kMeta section of an existing checkpoint file.
struct CkptMeta {
  Cycle cycle = 0;  ///< the cycle the machine was paused at
  RunSpec spec;
};

/// Serializes `sys`, paused at `cycle`, into a complete archive.
std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec, Cycle cycle,
                                            harness::CmpSystem& sys);

/// encode_checkpoint() written to `path` (atomically: temp + rename).
void write_checkpoint(const std::string& path, const RunSpec& spec,
                      Cycle cycle, harness::CmpSystem& sys);

/// Reads and validates just the kMeta section of `path`.
CkptMeta read_checkpoint_meta(const std::string& path);

/// The checkpoint path run_with_checkpoints() uses for a pause cycle.
std::string checkpoint_path(const std::string& dir, const RunSpec& spec,
                            Cycle cycle);

/// The pause cycles `--checkpoint-every N` expands to: N, 2N, ... up to
/// `max_cycles`. N == 0 yields none.
std::vector<Cycle> periodic_pauses(Cycle every, Cycle max_cycles);

/// Runs the spec's workload once, pausing at each cycle in `pause_at`
/// (ascending) to write checkpoint_path(dir, spec, cycle). Paths of the
/// checkpoints actually written land in `*written` when non-null
/// (pauses past the end of the run write nothing).
harness::RunResult run_with_checkpoints(
    const RunSpec& spec, const std::vector<Cycle>& pause_at,
    const std::string& dir, std::vector<std::string>* written = nullptr);

/// Restores the run saved in `path`: replays from cycle 0 to the
/// checkpoint cycle, byte-verifies the replayed machine against the
/// archive (kStateDivergence on any mismatch — including a replay that
/// finishes before ever reaching the checkpoint cycle), then continues
/// to completion. The result is bit-identical to an uninterrupted run of
/// the same spec (tests/ckpt_equivalence_test.cpp).
harness::RunResult restore_and_run(const std::string& path);

}  // namespace glocks::ckpt
