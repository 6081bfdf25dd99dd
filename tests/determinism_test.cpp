// The determinism contract, enforced (docs/simulation_model.md): a
// (workload, config, seed) triple must reproduce bit-identically, run
// after run and thread after thread — that is exactly the property that
// makes the run-level parallelism in src/exec safe. Part (a) runs every
// registry workload repeatedly with the same seed and diffs every
// reported metric; part (b) runs the same sweep grid serially and with
// --jobs 4 and requires byte-identical CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/manifest.hpp"
#include "exec/parallel_for.hpp"
#include "exec/sweep.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "result_diff.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

harness::RunResult run_once(const workloads::RegistryEntry& entry,
                            locks::LockKind kind, std::uint64_t seed) {
  // Shrunk inputs keep the suite quick; determinism is scale-invariant
  // (the input is smaller, not differently scheduled).
  auto wl = entry.make(0.25);
  harness::RunConfig cfg;
  cfg.policy.highly_contended = kind;
  cfg.seed = seed;
  return harness::run_workload(*wl, cfg);
}

class EveryWorkload : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EveryWorkload, RepeatedRunsAreBitIdentical) {
  const auto& entry = workloads::registry()[GetParam()];
  const std::uint64_t seed = 3;

  const auto serial = run_once(entry, locks::LockKind::kGlock, seed);
  // Two more runs on concurrent pool threads: agreement with the serial
  // baseline shows thread placement leaks nothing into the simulation.
  const auto repeats = exec::parallel_map<harness::RunResult>(
      2, 2, [&](std::size_t) {
        return run_once(entry, locks::LockKind::kGlock, seed);
      });
  for (const auto& r : repeats) {
    const std::string diff = test::diff_results(serial, r);
    EXPECT_EQ(diff, "") << entry.name << ": " << diff;
    // The human-readable report is derived from the result, but byte
    // equality there also covers its float formatting paths.
    EXPECT_EQ(harness::summary_text(serial), harness::summary_text(r))
        << entry.name;
  }
}

TEST_P(EveryWorkload, McsRunsAreBitIdenticalToo) {
  const auto& entry = workloads::registry()[GetParam()];
  const auto a = run_once(entry, locks::LockKind::kMcs, 7);
  const auto b = run_once(entry, locks::LockKind::kMcs, 7);
  const std::string diff = test::diff_results(a, b);
  EXPECT_EQ(diff, "") << entry.name << ": " << diff;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkload,
    ::testing::Range<std::size_t>(0, workloads::registry().size()),
    [](const auto& info) {
      return workloads::registry()[info.param].name;
    });

// Fault injection is part of the determinism contract too: the injector
// derives every fate from (seed, wire, cycle) alone, so a faulted run
// must replay bit-identically — including every recovery action and the
// FaultStats ledger.
harness::RunResult run_faulted(const workloads::RegistryEntry& entry,
                               std::uint64_t seed) {
  auto wl = entry.make(0.25);
  harness::RunConfig cfg;
  cfg.policy.highly_contended = locks::LockKind::kGlock;
  cfg.seed = seed;
  cfg.cmp.fault.enabled = true;
  cfg.cmp.fault.seed = seed * 31 + 5;
  cfg.cmp.fault.drop_rate = 1e-3;
  cfg.cmp.fault.garble_rate = 1e-3;
  cfg.cmp.fault.delay_rate = 1e-3;
  cfg.cmp.fault.noise_rate = 1e-3;
  cfg.cmp.fault.stuck_rate = 1e-4;
  return harness::run_workload(*wl, cfg);
}

TEST_P(EveryWorkload, FaultedRunsAreBitIdentical) {
  const auto& entry = workloads::registry()[GetParam()];
  const auto serial = run_faulted(entry, 11);
  const auto repeats = exec::parallel_map<harness::RunResult>(
      2, 2, [&](std::size_t) { return run_faulted(entry, 11); });
  for (const auto& r : repeats) {
    const std::string diff = test::diff_results(serial, r);
    EXPECT_EQ(diff, "") << entry.name << " (faulted): " << diff;
  }
}

exec::SweepSpec small_grid(unsigned jobs) {
  exec::SweepSpec spec;
  spec.workloads = {"SCTR", "MCTR"};
  spec.lock_kinds = {locks::LockKind::kMcs, locks::LockKind::kGlock};
  spec.core_counts = {8, 16};
  spec.seeds = {1, 2};
  spec.scale = 0.25;
  spec.jobs = jobs;
  return spec;
}

TEST(SweepDeterminism, ParallelCsvIsByteIdenticalToSerial) {
  std::ostringstream serial, parallel;
  exec::run_sweep(small_grid(1), serial);
  exec::run_sweep(small_grid(4), parallel);

  ASSERT_FALSE(serial.str().empty());
  EXPECT_EQ(serial.str(), parallel.str());

  // Header plus one row per grid point, each a complete line.
  const std::string& csv = serial.str();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, exec::sweep_size(small_grid(1)) + 1);
  EXPECT_EQ(csv.back(), '\n');
}

TEST(SweepDeterminism, FaultedSweepCsvIsByteIdenticalAcrossJobs) {
  auto make = [](unsigned jobs) {
    auto spec = small_grid(jobs);
    spec.fault.enabled = true;
    spec.fault.seed = 99;
    spec.fault.drop_rate = 1e-3;
    spec.fault.garble_rate = 1e-3;
    spec.fault.delay_rate = 1e-3;
    spec.fault.noise_rate = 1e-3;
    return spec;
  };
  std::ostringstream serial, parallel;
  exec::run_sweep(make(1), serial);
  exec::run_sweep(make(4), parallel);
  ASSERT_FALSE(serial.str().empty());
  EXPECT_EQ(serial.str(), parallel.str());
  // The fault columns are present exactly when the plan is enabled.
  EXPECT_NE(serial.str().find("faults_injected"), std::string::npos);
  std::ostringstream clean;
  exec::run_sweep(small_grid(1), clean);
  EXPECT_EQ(clean.str().find("faults_injected"), std::string::npos);
}

// Sweep resume through the checkpoint manifest. Four properties: a
// manifest-backed parallel sweep (workers record rows concurrently)
// emits the same CSV as a plain serial one; re-running over the now
// complete manifest recomputes nothing and still reproduces the CSV
// byte for byte; a crash-truncated manifest (file cut mid-section)
// resumes to the identical CSV; and a manifest keyed to a different
// grid is refused with a structured spec-mismatch error.
TEST(SweepDeterminism, ManifestResumeCsvIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "/resume.manifest";
  std::remove(path.c_str());
  const auto sig = exec::sweep_signature(small_grid(1));
  const std::size_t grid = exec::sweep_size(small_grid(1));

  std::ostringstream plain;
  exec::run_sweep(small_grid(1), plain);

  std::ostringstream fresh;
  {
    ckpt::SweepManifest m(path, sig);
    EXPECT_TRUE(m.completed().empty());
    exec::run_sweep(small_grid(4), fresh, nullptr, &m);
    EXPECT_EQ(m.completed().size(), grid);
  }
  EXPECT_EQ(fresh.str(), plain.str());

  // Complete manifest: every row is replayed from the file, none re-run.
  std::ostringstream replayed;
  {
    ckpt::SweepManifest m(path, sig);
    EXPECT_EQ(m.completed().size(), grid);
    exec::run_sweep(small_grid(1), replayed, nullptr, &m);
  }
  EXPECT_EQ(replayed.str(), plain.str());

  // Crash mid-append: cut the file inside some row section. Reopening
  // must drop the damaged tail, keep the intact prefix, and the resumed
  // sweep must fill in exactly the missing rows.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes.resize(bytes.size() / 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::ostringstream resumed;
  {
    ckpt::SweepManifest m(path, sig);
    EXPECT_LT(m.completed().size(), grid);
    exec::run_sweep(small_grid(4), resumed, nullptr, &m);
    EXPECT_EQ(m.completed().size(), grid);
  }
  EXPECT_EQ(resumed.str(), plain.str());

  // A manifest belongs to exactly one grid.
  auto other = small_grid(1);
  other.seeds = {1, 2, 3};
  try {
    ckpt::SweepManifest m(path, exec::sweep_signature(other));
    FAIL() << "manifest accepted a different grid's signature";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptError::Code::kSpecMismatch);
  }
}

TEST(SweepDeterminism, SeedAxisExpandsTheGrid) {
  auto spec = small_grid(2);
  spec.workloads = {"SCTR"};
  spec.core_counts = {8};
  spec.seeds = {1, 2, 3};
  EXPECT_EQ(exec::sweep_size(spec), 2u * 3u);
  std::ostringstream os;
  exec::run_sweep(spec, os);
  // Every row carries its seed in column 2, in grid order (seeds are the
  // innermost axis).
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);  // header
  EXPECT_EQ(line.rfind("cores,seed,", 0), 0u);
  std::vector<std::string> seed_col;
  while (std::getline(in, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    seed_col.push_back(line.substr(c1 + 1, c2 - c1 - 1));
  }
  const std::vector<std::string> want = {"1", "2", "3", "1", "2", "3"};
  EXPECT_EQ(seed_col, want);
}

}  // namespace
}  // namespace glocks
