// Host-independent guards on the mesh's router worklist: a mesh tick
// visits only the routers holding packets, so router visits stay a small
// fraction of (tiles x mesh ticks) — the count a mesh that ticks every
// router would make — and of those only the ones with a queue head due,
// so nearly every visit finds a ready head. Counts are deterministic, so
// unlike a wall-clock gate this cannot flake on a loaded host.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

class RouterVisits : public ::testing::TestWithParam<const char*> {};

TEST_P(RouterVisits, StayFewAndNearlyAllFindAReadyHead) {
  auto wl = workloads::make_workload(GetParam(), 0.1);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 256;
  cfg.cmp.gline.signal_latency = 2;
  cfg.policy.highly_contended = locks::LockKind::kMcs;
  const harness::RunResult r = harness::run_workload(*wl, cfg);
  const std::uint64_t mesh_ticks = slot_ticks(r.perf, "mesh");
  const std::uint64_t visits = r.perf.msg.router_visits;
  ASSERT_GT(mesh_ticks, 0u);
  EXPECT_GT(visits, 0u);
  EXPECT_LE(visits, 256 * mesh_ticks / 8)
      << visits << " router visits over " << mesh_ticks << " mesh ticks ("
      << static_cast<double>(visits) / static_cast<double>(mesh_ticks)
      << " per tick)";
  // A router holding only packets still in flight on a link is not
  // visited, so at most one visit in five finds no ready head.
  const std::uint64_t busy = r.perf.msg.router_busy_visits;
  EXPECT_LE(busy, visits);
  EXPECT_LE(4 * visits, 5 * busy)
      << visits << " router visits, " << busy << " with a ready head";
}

INSTANTIATE_TEST_SUITE_P(Mcs256, RouterVisits,
                         ::testing::Values("SCTR", "RAYTR"));

}  // namespace
}  // namespace glocks
