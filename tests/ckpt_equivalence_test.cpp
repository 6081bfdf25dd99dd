// Resume-equivalence: the checkpoint/restore contract, end to end.
//
// For every workload in the registry: run uninterrupted (R0); run again
// writing one checkpoint at a pseudo-random mid-run cycle (the pause
// must not perturb the run — that run's result must already equal R0);
// restore from the file (replay + byte verification + continue) and
// demand a bit-identical RunResult, twice (a checkpoint file is not
// consumed by restoring from it). One workload repeats the whole
// exercise under an active fault-injection plan, where the guarded
// G-line ARQ machinery is live state. Finally: corrupted, version-
// skewed, and mislabeled checkpoint files must fail with the matching
// structured CkptError — never a crash, never a silently wrong run.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hpp"
#include "result_diff.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

ckpt::RunSpec base_spec(const std::string& workload) {
  ckpt::RunSpec spec;
  spec.workload = workload;
  spec.scale = 0.25;
  spec.seed = 1;
  spec.cmp.num_cores = 8;
  spec.policy.highly_contended = locks::LockKind::kGlock;
  return spec;
}

harness::RunResult run_plain(const ckpt::RunSpec& spec) {
  auto wl = workloads::make_workload(spec.workload, spec.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec.cmp;
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.energy = spec.energy;
  return harness::run_workload(*wl, cfg);
}

/// Deterministic per-workload checkpoint cycle: an FNV-1a hash of the
/// name picks a point in the middle 60% of the uninterrupted run, so
/// every workload checkpoints somewhere different and none lands on the
/// trivial cycle-0 / last-cycle edges.
Cycle pick_checkpoint_cycle(const std::string& name, Cycle run_cycles) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  const Cycle lo = run_cycles / 5;
  const Cycle span = (run_cycles * 3) / 5;
  return lo + (span == 0 ? 0 : h % span);
}

/// Checkpoints `spec` at cycle `at` (by default a pick_checkpoint_cycle
/// point) and demands that pausing and restoring both reproduce the
/// uninterrupted run.
void check_resume_equivalence(const ckpt::RunSpec& spec,
                              const std::string& dir,
                              Cycle at = kNoCycle) {
  SCOPED_TRACE(spec.workload);
  const harness::RunResult r0 = run_plain(spec);
  ASSERT_GT(r0.cycles, 10u) << "run too short to checkpoint mid-way";

  if (at == kNoCycle) at = pick_checkpoint_cycle(spec.workload, r0.cycles);
  std::vector<std::string> written;
  const harness::RunResult paused =
      ckpt::run_with_checkpoints(spec, {at}, dir, &written);
  ASSERT_EQ(written.size(), 1u) << "checkpoint at cycle " << at
                                << " of " << r0.cycles << " not written";
  // Pausing to checkpoint must not perturb the run.
  EXPECT_EQ(test::diff_results(r0, paused), "");

  // Restore (replay + byte-verify + continue) twice from the same file.
  const harness::RunResult r1 = ckpt::restore_and_run(written[0]);
  EXPECT_EQ(test::diff_results(r0, r1), "");
  const harness::RunResult r2 = ckpt::restore_and_run(written[0]);
  EXPECT_EQ(test::diff_results(r0, r2), "");
}

TEST(CkptEquivalence, EveryRegistryWorkload) {
  const std::string dir = ::testing::TempDir();
  for (const auto& entry : workloads::registry()) {
    check_resume_equivalence(base_spec(entry.name), dir);
  }
}

TEST(CkptEquivalence, FaultedRunRoundTrips) {
  // Active fault plan: dropped/garbled/delayed frames plus a stuck-at
  // schedule, so the checkpoint carries live ARQ retransmission state,
  // watchdog timers, and the injector's ledger mid-flight.
  ckpt::RunSpec spec = base_spec("MCTR");
  spec.cmp.fault.enabled = true;
  spec.cmp.fault.seed = 7;
  spec.cmp.fault.drop_rate = 1e-3;
  spec.cmp.fault.garble_rate = 1e-3;
  spec.cmp.fault.delay_rate = 1e-3;
  spec.cmp.fault.noise_rate = 1e-3;
  spec.cmp.fault.stuck_rate = 1e-4;
  check_resume_equivalence(spec, ::testing::TempDir());
}

TEST(CkptEquivalence, MeshFaultedRunRoundTrips) {
  // Mesh fault domain armed: the checkpoint carries per-link ARQ guard
  // state, pending injector delays, the dead-link set (one link is
  // scripted to die mid-run) with its detour tables, and the L1s'
  // end-to-end watchdog deadlines — all of which must replay to the same
  // bytes and finish bit-identically.
  ckpt::RunSpec spec = base_spec("MCTR");
  spec.cmp.fault.seed = 11;
  spec.cmp.fault.mesh.enabled = true;
  spec.cmp.fault.mesh.drop_rate = 2e-3;
  spec.cmp.fault.mesh.garble_rate = 1e-3;
  spec.cmp.fault.mesh.delay_rate = 2e-3;
  spec.cmp.fault.mesh.kills.push_back(LinkKill{1, 3, 1500});
  check_resume_equivalence(spec, ::testing::TempDir());
}

TEST(CkptEquivalence, McsRoundTripsAcrossASpinPark) {
  // MCS spinners park on their L1 lines: a checkpoint taken while one is
  // parked carries the spin watch and the park flag, and the restored
  // run must reach the same bytes and finish bit-identically.
  ckpt::RunSpec spec = base_spec("SCTR");
  spec.policy.highly_contended = locks::LockKind::kMcs;
  const harness::RunResult r0 = run_plain(spec);
  auto wl = workloads::make_workload(spec.workload, spec.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec.cmp;
  cfg.policy = spec.policy;
  cfg.seed = spec.seed;
  cfg.energy = spec.energy;
  harness::RunHooks hooks;
  for (Cycle c = r0.cycles / 3; c < r0.cycles / 3 + 500; ++c) {
    hooks.pause_at.push_back(c);
  }
  Cycle at = kNoCycle;
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle now) {
    for (CoreId c = 0; c < sys.num_cores() && at == kNoCycle; ++c) {
      if (sys.core(c).parked()) at = now;
    }
  };
  harness::run_workload(*wl, cfg, hooks);
  ASSERT_NE(at, kNoCycle) << "no core parked in the probed cycles";
  check_resume_equivalence(spec, ::testing::TempDir(), at);
}

TEST(CkptEquivalence, EachOfTwoPausesInOneRunRestores) {
  // The writer pauses twice, but the restore verifier replays with a
  // single pause, so nothing serialized may depend on how earlier pauses
  // split the run (a pause splits an idle clock jump, for one).
  const ckpt::RunSpec spec = base_spec(workloads::registry()[0].name);
  const harness::RunResult r0 = run_plain(spec);
  ASSERT_GT(r0.cycles, 30u) << "run too short to pause twice";
  const Cycle p1 = r0.cycles / 3;
  const Cycle p2 = 2 * r0.cycles / 3;
  std::vector<std::string> written;
  const harness::RunResult paused = ckpt::run_with_checkpoints(
      spec, {p1, p2}, ::testing::TempDir(), &written);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(test::diff_results(r0, paused), "");
  for (const std::string& path : written) {
    const harness::RunResult restored = ckpt::restore_and_run(path);
    EXPECT_EQ(test::diff_results(r0, restored), "") << path;
  }
}

// ---------------------------------------------------------------------
// Rejection contract on real checkpoint files.

class CkptRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = base_spec("SCTR");
    const harness::RunResult r0 = run_plain(spec_);
    at_ = pick_checkpoint_cycle(spec_.workload, r0.cycles);
    std::vector<std::string> written;
    ckpt::run_with_checkpoints(spec_, {at_}, ::testing::TempDir(),
                               &written);
    ASSERT_EQ(written.size(), 1u);
    path_ = written[0];
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  std::string write_variant(const std::string& name,
                            const std::vector<char>& bytes) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  ckpt::CkptError::Code restore_error(const std::string& path) {
    try {
      ckpt::restore_and_run(path);
    } catch (const ckpt::CkptError& e) {
      return e.code();
    }
    ADD_FAILURE() << "restore of " << path << " unexpectedly succeeded";
    return ckpt::CkptError::Code::kIo;
  }

  ckpt::RunSpec spec_;
  Cycle at_ = 0;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CkptRejection, CorruptedPayloadIsBadCrc) {
  std::vector<char> bad = bytes_;
  bad[bad.size() / 2] ^= 0x20;  // deep inside some section's payload
  EXPECT_EQ(restore_error(write_variant("corrupt.ckpt", bad)),
            ckpt::CkptError::Code::kBadCrc);
}

TEST_F(CkptRejection, NewerFormatVersionIsBadVersion) {
  std::vector<char> bad = bytes_;
  const std::uint32_t newer = ckpt::kFormatVersion + 1;
  for (int i = 0; i < 4; ++i) {
    bad[8 + static_cast<std::size_t>(i)] =
        static_cast<char>((newer >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(restore_error(write_variant("newer.ckpt", bad)),
            ckpt::CkptError::Code::kBadVersion);
}

// Archives written before the current format must be refused up front,
// naming the version: v5 predates the spin-parking fields of the core and
// L1 sections, and v6 still carries the execution-strategy fields v7
// dropped from the run spec and the meta section.
class CkptOldVersion : public CkptRejection,
                       public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(CkptOldVersion, ArchiveIsBadVersion) {
  const std::uint32_t version = GetParam();
  std::vector<char> old = bytes_;
  for (int i = 0; i < 4; ++i) {
    old[8 + static_cast<std::size_t>(i)] =
        static_cast<char>((version >> (8 * i)) & 0xFF);
  }
  try {
    ckpt::restore_and_run(
        write_variant("v" + std::to_string(version) + ".ckpt", old));
    ADD_FAILURE() << "version-" << version << " archive unexpectedly restored";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptError::Code::kBadVersion);
    const std::string what = e.what();
    EXPECT_NE(what.find("format version " + std::to_string(version)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("older incompatible build"), std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(PreV7, CkptOldVersion, ::testing::Values(5u, 6u),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST_F(CkptRejection, NotAnArchiveIsBadMagic) {
  // Longer than the archive header, so the magic check (not the
  // truncation check) is what rejects it.
  const std::string noise = "cores,seed,workload,cycles\n8,1,SCTR,99\n";
  EXPECT_EQ(restore_error(write_variant(
                "noise.ckpt",
                std::vector<char>(noise.begin(), noise.end()))),
            ckpt::CkptError::Code::kBadMagic);
}

TEST_F(CkptRejection, TruncatedFileIsTruncated) {
  std::vector<char> bad = bytes_;
  bad.resize(bad.size() / 2);
  EXPECT_EQ(restore_error(write_variant("trunc.ckpt", bad)),
            ckpt::CkptError::Code::kTruncated);
}

TEST_F(CkptRejection, WrongSpecIsStateDivergence) {
  // A checkpoint whose meta names a different workload than the machine
  // state was produced under: the replay runs the meta's spec, and the
  // byte verification must refuse the mismatched machine sections.
  ckpt::RunSpec wrong = spec_;
  wrong.workload = "MCTR";
  auto wl = workloads::make_workload(spec_.workload, spec_.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec_.cmp;
  cfg.policy = spec_.policy;
  cfg.seed = spec_.seed;  // machine really runs seed 1...
  cfg.energy = spec_.energy;
  std::string path;
  harness::RunHooks hooks;
  hooks.pause_at = {at_};
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle now) {
    path = ::testing::TempDir() + "/wrong_seed.ckpt";
    ckpt::write_checkpoint(path, wrong, now, sys);  // ...meta says seed 2
  };
  harness::run_workload(*wl, cfg, hooks);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(restore_error(path),
            ckpt::CkptError::Code::kStateDivergence);
}

TEST_F(CkptRejection, CheckpointBeyondRunEndIsStateDivergence) {
  // Meta claims a pause cycle the spec's run never reaches: the replay
  // finishes first and restore must report that the file cannot belong
  // to this run, rather than returning an unverified result.
  auto wl = workloads::make_workload(spec_.workload, spec_.scale);
  harness::RunConfig cfg;
  cfg.cmp = spec_.cmp;
  cfg.policy = spec_.policy;
  cfg.seed = spec_.seed;
  cfg.energy = spec_.energy;
  std::string path;
  harness::RunHooks hooks;
  hooks.pause_at = {at_};
  hooks.on_pause = [&](harness::CmpSystem& sys, Cycle) {
    path = ::testing::TempDir() + "/beyond_end.ckpt";
    ckpt::write_checkpoint(path, spec_, /*cycle=*/1'000'000'000, sys);
  };
  harness::run_workload(*wl, cfg, hooks);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(restore_error(path),
            ckpt::CkptError::Code::kStateDivergence);
}

}  // namespace
}  // namespace glocks
