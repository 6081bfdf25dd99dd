// Host-independent guard on the fault-mode G-line system's sleep: a
// guarded GLock unit ticks only when a channel has a frame maturing, a
// watchdog due, a wire free for a waiting frame or a noise cycle, or when
// a core writes a lock register — not every cycle, as it did while the
// injector was thought to need the clock. Slot tick counts are
// deterministic, so unlike a wall-clock gate this cannot flake on a
// loaded host.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

std::uint64_t slot_ticks(const perf::SimPerf& p, const std::string& name) {
  for (const auto& s : p.slots) {
    if (s.name == name) return s.ticks;
  }
  ADD_FAILURE() << "no slot named " << name;
  return 0;
}

/// SCTR at 32 cores and scale 0.1 under the faulted sweep's plan.
harness::RunResult run_sctr(locks::LockKind lock) {
  auto wl = workloads::make_workload("SCTR", 0.1);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 32;
  cfg.cmp.fault =
      fault::parse_fault_spec("drop=0.001,noise=0.0001,mesh:rate=0.0005");
  cfg.policy.highly_contended = lock;
  return harness::run_workload(*wl, cfg);
}

// Under MCS no GLock is ever requested: the guarded units wake only for
// noise on their 124 wires (rate 1e-4) and at the noise lookahead's
// window stops — 459 of 33,457 cycles, measured.
TEST(GlineSleep, McsRunTicksTheGlinesOnlyForNoise) {
  const harness::RunResult r = run_sctr(locks::LockKind::kMcs);
  const std::uint64_t ticks = slot_ticks(r.perf, "glines");
  ASSERT_GT(r.cycles, 0u);
  EXPECT_GT(ticks, 0u);
  EXPECT_LE(ticks, r.cycles / 16)
      << ticks << " G-line ticks over " << r.cycles << " cycles";
}

// Under GLocks the units carry every handoff, but still sleep through
// frame flight, wire occupancy and register-spin stretches.
TEST(GlineSleep, GlockRunSleepsBetweenFrameEvents) {
  const harness::RunResult r = run_sctr(locks::LockKind::kGlock);
  const std::uint64_t ticks = slot_ticks(r.perf, "glines");
  constexpr std::uint64_t kMeasured = 1338;  // measured, of 20961 cycles
  EXPECT_GT(ticks, 0u);
  EXPECT_LE(ticks, kMeasured * 3 / 2)
      << ticks << " G-line ticks over " << r.cycles << " cycles";
  EXPECT_LT(ticks, r.cycles / 2);
}

}  // namespace
}  // namespace glocks
