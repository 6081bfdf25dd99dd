// Property suite (soak label): every registry workload must survive
// randomized fault plans — mutual exclusion intact (the guarded unit
// asserts no double token grant structurally, and each workload's
// verify() checks its own data invariants), eventual completion (by
// hardware recovery or by fallback demotion), and an exactly reconciled
// fault ledger: injected == detected + tolerated.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>

#include "harness/runner.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

struct FaultPlan {
  const char* name;
  double transient;  ///< drop = garble = delay = noise rate
  double stuck;
};

constexpr FaultPlan kPlans[] = {
    {"light", 1e-3, 0.0},
    {"heavy", 1e-2, 0.0},
    {"attrition", 2e-3, 0.05},  // permanent faults force demotions
};

using Params = std::tuple<std::size_t, std::size_t, std::uint64_t>;

class FaultSoak : public ::testing::TestWithParam<Params> {};

TEST_P(FaultSoak, CompletesAndLedgerReconciles) {
  const auto& entry = workloads::registry()[std::get<0>(GetParam())];
  const FaultPlan& plan = kPlans[std::get<1>(GetParam())];
  const std::uint64_t seed = std::get<2>(GetParam());

  auto wl = entry.make(0.25);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 16;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = seed;
  cfg.cmp.fault.enabled = true;
  cfg.cmp.fault.seed = seed * 1000003 + std::get<1>(GetParam());
  cfg.cmp.fault.drop_rate = plan.transient;
  cfg.cmp.fault.garble_rate = plan.transient;
  cfg.cmp.fault.delay_rate = plan.transient;
  cfg.cmp.fault.noise_rate = plan.transient;
  cfg.cmp.fault.stuck_rate = plan.stuck;
  cfg.cmp.fault.stuck_horizon = 20000;
  cfg.cmp.fault.max_retries = 4;

  // run_workload throws on a hang (cycle limit) and runs the workload's
  // own verify(); the guarded unit GLOCKS_CHECKs against double grants.
  // Reaching this point therefore IS the safety+liveness property.
  const auto r = harness::run_workload(*wl, cfg);

  EXPECT_TRUE(r.fault.enabled);
  EXPECT_EQ(r.fault.injected_total(), r.fault.detected + r.fault.tolerated)
      << entry.name << " plan=" << plan.name << " seed=" << seed;
  if (plan.stuck > 0.0 && r.fault.link_failures > 0) {
    // Permanent faults that killed a link must have demoted a GLock, and
    // demoted GLocks must have served acquires in software.
    EXPECT_GT(r.fault.fallback_demotions, 0u);
  }
}

// Mesh-domain soak: same shape, but the faults land on the mesh NoC's
// links instead of the G-lines — link-level ARQ plus the end-to-end
// coherence watchdog must deliver every coherence message exactly once,
// the "amputate" plan kills a link outright and the detour tables must
// carry the workload to completion anyway, and the mesh ledger must
// reconcile: injected == detected + tolerated.
struct MeshPlan {
  const char* name;
  double transient;  ///< drop = garble = delay rate
  bool kill;         ///< script one link death mid-run
};

constexpr MeshPlan kMeshPlans[] = {
    {"light", 1e-3, false},
    {"heavy", 5e-3, false},
    {"amputate", 1e-3, true},
};

constexpr Cycle kMeshKillAt = 2000;

class MeshFaultSoak : public ::testing::TestWithParam<Params> {};

TEST_P(MeshFaultSoak, CompletesAndLedgerReconciles) {
  const auto& entry = workloads::registry()[std::get<0>(GetParam())];
  const MeshPlan& plan = kMeshPlans[std::get<1>(GetParam())];
  const std::uint64_t seed = std::get<2>(GetParam());

  auto wl = entry.make(0.25);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 16;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = seed;
  cfg.cmp.fault.seed = seed * 1000003 + std::get<1>(GetParam());
  auto& m = cfg.cmp.fault.mesh;
  m.enabled = true;
  m.drop_rate = plan.transient;
  m.garble_rate = plan.transient;
  m.delay_rate = plan.transient;
  if (plan.kill) {
    m.kills.push_back(LinkKill{5, 3, kMeshKillAt});  // interior tile, east
  }

  const auto r = harness::run_workload(*wl, cfg);

  EXPECT_TRUE(r.mesh_fault.enabled);
  EXPECT_EQ(r.mesh_fault.injected_total(),
            r.mesh_fault.detected + r.mesh_fault.tolerated)
      << entry.name << " plan=" << plan.name << " seed=" << seed;
  if (plan.kill && r.cycles > kMeshKillAt) {
    // The scripted death must be on the books. (Whether any traffic
    // actually crossed the detour depends on the workload's sharing
    // pattern; tests/mesh_fault_test.cpp pins reroutes > 0 on a
    // workload that must.)
    EXPECT_EQ(r.mesh_fault.link_failures, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MeshFaultSoak,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, workloads::registry().size()),
        ::testing::Range<std::size_t>(0, std::size(kMeshPlans)),
        ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return workloads::registry()[std::get<0>(info.param)].name + "_" +
             kMeshPlans[std::get<1>(info.param)].name + "_s" +
             std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Registry, FaultSoak,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, workloads::registry().size()),
        ::testing::Range<std::size_t>(0, std::size(kPlans)),
        ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return workloads::registry()[std::get<0>(info.param)].name + "_" +
             kPlans[std::get<1>(info.param)].name + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace glocks
