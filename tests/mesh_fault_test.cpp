// Mesh NoC fault domain: spec grammar, exactly-once delivery under
// loss, deterministic detours around dead links, end-to-end watchdog
// escalation to a structured error on a partition, ledger
// reconciliation, and the faults-off CSV byte-identity regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "result_diff.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

// ---------------------------------------------------------------------
// --faults spec grammar: mesh: domain prefix.

TEST(MeshFaultSpec, MeshKeysParse) {
  const FaultConfig cfg =
      fault::parse_fault_spec("mesh:drop=1e-4,mesh:dead=1e-6");
  EXPECT_FALSE(cfg.enabled);  // no gline key -> gline domain stays off
  EXPECT_TRUE(cfg.mesh.enabled);
  EXPECT_TRUE(cfg.any());
  EXPECT_DOUBLE_EQ(cfg.mesh.drop_rate, 1e-4);
  EXPECT_DOUBLE_EQ(cfg.mesh.dead_rate, 1e-6);
}

TEST(MeshFaultSpec, DomainsCompose) {
  const FaultConfig cfg =
      fault::parse_fault_spec("drop=1e-3,mesh:rate=1e-4,seed=9");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.drop_rate, 1e-3);
  EXPECT_TRUE(cfg.mesh.enabled);
  EXPECT_DOUBLE_EQ(cfg.mesh.drop_rate, 1e-4);
  EXPECT_DOUBLE_EQ(cfg.mesh.garble_rate, 1e-4);
  EXPECT_DOUBLE_EQ(cfg.mesh.delay_rate, 1e-4);
  EXPECT_DOUBLE_EQ(cfg.mesh.dead_rate, 1e-5);  // rate seeds dead at /10
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(MeshFaultSpec, KillSpecParses) {
  const FaultConfig cfg =
      fault::parse_fault_spec("mesh:kill=3.e@2000,mesh:kill=0.n@10");
  ASSERT_EQ(cfg.mesh.kills.size(), 2u);
  EXPECT_EQ(cfg.mesh.kills[0].tile, 3u);
  EXPECT_EQ(cfg.mesh.kills[0].dir, 3u);  // east
  EXPECT_EQ(cfg.mesh.kills[0].at, 2000u);
  EXPECT_EQ(cfg.mesh.kills[1].tile, 0u);
  EXPECT_EQ(cfg.mesh.kills[1].dir, 1u);  // north
  EXPECT_EQ(cfg.mesh.kills[1].at, 10u);
}

TEST(MeshFaultSpec, BadSpecsAreStructuredErrors) {
  EXPECT_THROW(fault::parse_fault_spec("mesh:bogus=1"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("ring:drop=1e-3"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("mesh:kill=3.x@2000"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("mesh:kill=3e@2000"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("mesh:rate=1.5"), SimError);
  try {
    fault::parse_fault_spec("mesh:kill=1.q@5");
    FAIL() << "bad kill direction unexpectedly parsed";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("n/s/e/w"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Whole-chip behaviour under mesh faults.

harness::RunConfig mesh_cfg(std::uint64_t seed) {
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 8;  // 3x3 mesh, tile 8 router-only
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = seed;
  cfg.cmp.fault.seed = seed * 13 + 1;
  cfg.cmp.fault.mesh.enabled = true;
  return cfg;
}

harness::RunResult run_sctr(const harness::RunConfig& cfg) {
  auto wl = workloads::make_workload("SCTR", 0.25);
  return harness::run_workload(*wl, cfg);
}

// Lossy links: every coherence message still arrives exactly once (the
// workload's verify() and the directory's structural checks would catch
// a lost or doubly-applied message; run_workload runs both), the ARQ
// layer visibly worked, and the ledger reconciles to the last frame.
TEST(MeshFault, ExactlyOnceDeliveryUnderLoss) {
  harness::RunConfig cfg = mesh_cfg(3);
  cfg.cmp.fault.mesh.drop_rate = 3e-3;
  cfg.cmp.fault.mesh.garble_rate = 2e-3;
  cfg.cmp.fault.mesh.delay_rate = 3e-3;

  const auto r = run_sctr(cfg);

  EXPECT_TRUE(r.mesh_fault.enabled);
  EXPECT_GT(r.mesh_fault.injected_total(), 0u);
  EXPECT_GT(r.mesh_fault.retransmissions, 0u);
  EXPECT_EQ(r.mesh_fault.injected_total(),
            r.mesh_fault.detected + r.mesh_fault.tolerated);
}

// Identical config -> bit-identical faulted results, including the full
// mesh ledger (fates are a pure hash of seed/link/cycle, never of host
// state).
TEST(MeshFault, FaultedRunsAreBitIdenticalAcrossRepeats) {
  harness::RunConfig cfg = mesh_cfg(5);
  cfg.cmp.fault.mesh.drop_rate = 2e-3;
  cfg.cmp.fault.mesh.garble_rate = 1e-3;
  cfg.cmp.fault.mesh.delay_rate = 2e-3;
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{1, 3, 1500});

  const auto a = run_sctr(cfg);
  const auto b = run_sctr(cfg);
  const std::string diff = test::diff_results(a, b);
  EXPECT_EQ(diff, "") << diff;
}

// A scripted link death mid-run: the workload must still complete, the
// death must be on the books, and completion must have come from
// detoured forwards around the dead link.
TEST(MeshFault, DeadLinkDetoursAndCompletes) {
  harness::RunConfig cfg = mesh_cfg(7);
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{1, 3, 1000});
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{4, 1, 1200});

  const auto r = run_sctr(cfg);

  ASSERT_GT(r.cycles, 1200u) << "run too short to reach the kills";
  EXPECT_EQ(r.mesh_fault.link_failures, 2u);
  EXPECT_GT(r.mesh_fault.reroutes, 0u);
}

// Several dead links at once: detours now follow the up*/down* turn
// model, so even a heavily amputated-but-connected mesh must complete
// the workload — no cyclic channel dependency (routing deadlock) can
// form — and the rerouted runs stay bit-identical across repeats. The
// kill set retires edges 1-2, 4-5 and 4-7 (edges are retired whole, so
// traffic to/from tile 2 must round the long way via 5-8-7), which
// under unrestricted shortest-path detours could close dependency
// cycles through the surviving ring.
TEST(MeshFault, ManyDeadLinksCompleteWithoutRoutingDeadlock) {
  harness::RunConfig cfg = mesh_cfg(11);
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{1, 3, 900});   // 1 -E-> 2
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{4, 3, 1000});  // 4 -E-> 5
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{4, 2, 1100});  // 4 -S-> 7

  const auto a = run_sctr(cfg);

  ASSERT_GT(a.cycles, 1100u) << "run too short to reach the kills";
  EXPECT_EQ(a.mesh_fault.link_failures, 3u);
  EXPECT_GT(a.mesh_fault.reroutes, 0u);

  const auto b = run_sctr(cfg);
  const std::string diff = test::diff_results(a, b);
  EXPECT_EQ(diff, "") << diff;
}

// Killing every outbound link of tile 0 partitions its home directory
// away from the rest of the chip: the end-to-end watchdog must retry,
// exhaust its budget, and escalate to a structured SimError naming the
// stuck request and the dead links — never a silent hang.
TEST(MeshFault, PartitionEscalatesToStructuredError) {
  harness::RunConfig cfg = mesh_cfg(9);
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{0, 3, 800});  // 0 -E-> 1
  cfg.cmp.fault.mesh.kills.push_back(LinkKill{0, 2, 800});  // 0 -S-> 3
  cfg.cmp.fault.mesh.e2e_timeout = 2000;
  cfg.cmp.fault.mesh.e2e_max_retries = 3;

  try {
    run_sctr(cfg);
    FAIL() << "partitioned run unexpectedly completed";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("end-to-end retry budget exhausted"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("dead mesh links"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// Faults-off CSV stays byte-identical to the clean format: the mesh
// columns appear only when the mesh domain is armed, exactly like the
// G-line fault columns.

TEST(MeshFault, FaultsOffCsvBytesUnchanged) {
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 8;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = 1;
  const auto r = run_sctr(cfg);

  std::ostringstream plain_h, off_h, plain_r, off_r;
  harness::write_csv_header(plain_h);
  harness::write_csv_header(off_h, false, false);
  harness::write_csv_row(r, plain_r);
  harness::write_csv_row(r, off_r, false, false);
  EXPECT_EQ(plain_h.str(), off_h.str());
  EXPECT_EQ(plain_r.str(), off_r.str());
  EXPECT_EQ(plain_h.str().find("mesh_"), std::string::npos);

  std::ostringstream mesh_h;
  harness::write_csv_header(mesh_h, false, true);
  EXPECT_NE(mesh_h.str().find("mesh_injected"), std::string::npos);
  EXPECT_NE(mesh_h.str().find("e2e_dup_drops"), std::string::npos);

  // The human-readable summary is likewise silent about the mesh domain
  // when it never ran.
  EXPECT_EQ(harness::summary_text(r).find("mesh faults"),
            std::string::npos);
}

}  // namespace
}  // namespace glocks
