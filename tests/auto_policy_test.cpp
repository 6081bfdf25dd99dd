// Tests for the automatic GLock assignment (harness/auto_policy).
#include <gtest/gtest.h>

#include "harness/auto_policy.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

const workloads::RegistryEntry& entry(const std::string& name) {
  for (const auto& e : workloads::registry()) {
    if (e.name == name) return e;
  }
  throw SimError("missing " + name);
}

harness::RunConfig cfg16() {
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 16;
  return cfg;
}

TEST(AutoPolicy, FindsTheSingleHotLockInSctr) {
  const auto r = harness::auto_assign_glocks(entry("SCTR").make, cfg16());
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_TRUE(r.scores[0].chosen);
  EXPECT_EQ(r.policy.overrides.at("SCTR-L0"), locks::LockKind::kGlock);
}

TEST(AutoPolicy, PicksBothActrLocks) {
  const auto r = harness::auto_assign_glocks(entry("ACTR").make, cfg16());
  EXPECT_EQ(r.policy.overrides.size(), 2u);
  EXPECT_TRUE(r.policy.overrides.count("ACTR-L0"));
  EXPECT_TRUE(r.policy.overrides.count("ACTR-L1"));
}

TEST(AutoPolicy, IgnoresOceansBoundaryLocks) {
  const auto r = harness::auto_assign_glocks(entry("OCEAN").make, cfg16());
  EXPECT_TRUE(r.policy.overrides.count("OCEAN-L0"));
  EXPECT_FALSE(r.policy.overrides.count("OCEAN-LB0"));
  EXPECT_FALSE(r.policy.overrides.count("OCEAN-LB1"));
}

TEST(AutoPolicy, RaytraceDispenserRanksFirst) {
  const auto r = harness::auto_assign_glocks(entry("RAYTR").make, cfg16());
  ASSERT_FALSE(r.scores.empty());
  EXPECT_EQ(r.scores[0].name, "RAYTR-L1");
  EXPECT_TRUE(r.scores[0].chosen);
  // The 32 region locks must not receive hardware.
  for (const auto& s : r.scores) {
    if (s.name.rfind("RAYTR-LR", 0) == 0) {
      EXPECT_FALSE(s.chosen);
    }
  }
}

TEST(AutoPolicy, RespectsTheHardwareBudget) {
  auto cfg = cfg16();
  cfg.cmp.gline.num_glocks = 1;
  const auto r = harness::auto_assign_glocks(entry("ACTR").make, cfg);
  EXPECT_EQ(r.policy.overrides.size(), 1u);
}

TEST(AutoPolicy, UnchosenLocksFallBackToMcsAndTatas) {
  const auto r = harness::auto_assign_glocks(entry("RAYTR").make, cfg16());
  EXPECT_EQ(r.policy.highly_contended, locks::LockKind::kMcs);
  EXPECT_EQ(r.policy.regular, locks::LockKind::kTatas);
}

}  // namespace
}  // namespace glocks
