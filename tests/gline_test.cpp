// Unit tests of the G-line lock network: paper Figure 4's grant sequence,
// Table I's latencies and component counts, round-robin fairness, token
// movement between managers, and multi-lock independence.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "core/thread.hpp"
#include "gline/gline_system.hpp"
#include "gline/glock_unit.hpp"

namespace glocks::gline {
namespace {

/// Standalone driver for one GlockUnit: registers + manual clock.
class UnitFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCores = 9;
  static constexpr std::uint32_t kWidth = 3;

  UnitFixture() {
    for (std::uint32_t c = 0; c < kCores; ++c) {
      regs_.emplace_back(1);
    }
    for (auto& r : regs_) ptrs_.push_back(&r);
    unit_ = std::make_unique<GlockUnit>(0, kCores, kWidth, 1, ptrs_);
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) unit_->tick(now_++);
  }

  void request(CoreId c) { regs_[c].req[0] = true; }
  bool waiting(CoreId c) const { return regs_[c].req[0]; }
  void release(CoreId c) { regs_[c].rel[0] = true; }

  /// Ticks until core c's request register clears; returns ticks taken.
  int ticks_to_grant(CoreId c, int limit = 100) {
    int n = 0;
    while (waiting(c)) {
      tick();
      ++n;
      EXPECT_LT(n, limit) << "grant never arrived for core " << c;
      if (n >= limit) break;
    }
    return n;
  }

  Cycle now_ = 0;
  std::vector<glocks::core::LockRegisters> regs_;
  std::vector<glocks::core::LockRegisters*> ptrs_;
  std::unique_ptr<GlockUnit> unit_;
};

TEST_F(UnitFixture, WireCountsMatchTable1) {
  // 9-core 3x3 mesh: C - 1 = 8 G-lines, sqrt(C) = 3 secondary managers.
  EXPECT_EQ(unit_->num_glines(), 8u);
  EXPECT_EQ(unit_->num_secondary_managers(), 3u);
}

TEST_F(UnitFixture, UncontendedAcquireWithinWorstCasePlusPickup) {
  // Table I: 4 transmission cycles worst case; our register-pickup
  // convention adds one observation cycle at each end.
  request(0);
  const int n = ticks_to_grant(0);
  EXPECT_GE(n, 2);  // never faster than the best case
  EXPECT_LE(n, 6);  // worst case 4 + pickup slack
  EXPECT_EQ(unit_->holder(), std::optional<CoreId>(0));
}

TEST_F(UnitFixture, ReleaseTakesOneCycle) {
  request(4);
  ticks_to_grant(4);
  release(4);
  tick();  // the local controller consumes lock_rel in one cycle
  EXPECT_FALSE(regs_[4].rel[0]);
  EXPECT_EQ(unit_->holder(), std::nullopt);
}

TEST_F(UnitFixture, AllNineGrantInRoundRobinOrder) {
  // Paper Figure 4: when all cores request simultaneously, grants proceed
  // Core0, Core1, ..., Core8.
  for (CoreId c = 0; c < kCores; ++c) request(c);
  std::vector<CoreId> order;
  while (order.size() < kCores) {
    tick();
    if (auto h = unit_->holder()) {
      if (order.empty() || order.back() != *h) order.push_back(*h);
      if (!waiting(*h)) {  // has the grant; release immediately
        release(*h);
      }
    }
    ASSERT_LT(now_, 500u);
  }
  EXPECT_EQ(order,
            (std::vector<CoreId>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(UnitFixture, HandoffWithinRowIsFast) {
  // Fig 4(c): after the holder in a row releases, the next waiter in the
  // same row is granted without consulting the primary manager.
  request(0);
  request(1);
  ticks_to_grant(0);
  release(0);
  const int n = ticks_to_grant(1, 20);
  EXPECT_LE(n, 4);  // REL + in-row grant, no R round-trip
}

TEST_F(UnitFixture, TokenReturnsToPrimaryBetweenRows) {
  request(0);  // row 0
  request(3);  // row 1
  ticks_to_grant(0);
  release(0);
  ticks_to_grant(3, 20);
  EXPECT_EQ(unit_->holder(), std::optional<CoreId>(3));
  EXPECT_GE(unit_->stats().secondary_passes, 1u);
}

TEST_F(UnitFixture, NoStarvationUnderConstantRerequest) {
  // Cores 0 and 1 re-request immediately after releasing; core 8 (other
  // row) must still get the lock within a bounded number of grants.
  request(0);
  request(1);
  request(8);
  int grants_before_8 = 0;
  while (waiting(8)) {
    tick();
    if (auto h = unit_->holder()) {
      if (*h != 8 && !waiting(*h)) {
        ++grants_before_8;
        release(*h);
        // Model the greedy re-request after the release drains.
        tick(2);
        if (*h == 0) request(0);
        if (*h == 1) request(1);
      }
    }
    ASSERT_LT(now_, 2000u) << "core 8 starved";
  }
  EXPECT_LE(grants_before_8, 6);
}

TEST_F(UnitFixture, RoundRobinPassDoesNotRevisitEarlierIndices) {
  // Core 2 requests while core 1 holds; since the row pass already moved
  // past index 0, a new request from core 0 waits for the next pass, but
  // core 2 is served in this one.
  request(1);
  ticks_to_grant(1);
  request(0);
  request(2);
  release(1);
  ticks_to_grant(2, 20);
  EXPECT_EQ(unit_->holder(), std::optional<CoreId>(2));
  EXPECT_TRUE(waiting(0));  // still queued for the next rotation
  release(2);
  ticks_to_grant(0, 30);
  EXPECT_EQ(unit_->holder(), std::optional<CoreId>(0));
}

TEST_F(UnitFixture, IdleOnlyWhenNothingInFlight) {
  EXPECT_TRUE(unit_->idle());
  request(5);
  tick();
  EXPECT_FALSE(unit_->idle());
  ticks_to_grant(5);
  EXPECT_FALSE(unit_->idle());  // held
  release(5);
  tick(5);
  EXPECT_TRUE(unit_->idle());
}

TEST_F(UnitFixture, SignalsAreCountedForEnergy) {
  request(0);
  ticks_to_grant(0);
  release(0);
  tick(5);
  const auto& s = unit_->stats();
  EXPECT_EQ(s.acquires_granted, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_GT(s.signals, 0u);
  // Core 0 is remote from both managers: REQ, grant and REL all cross
  // real G-lines (3 wire segments up + down + up at minimum).
  EXPECT_GE(s.signals + s.local_flags, 6u);
}

TEST(GlineSystem, ProvisionsConfiguredLocks) {
  CmpConfig cfg;
  cfg.num_cores = 9;
  std::vector<glocks::core::LockRegisters> regs;
  for (std::uint32_t c = 0; c < 9; ++c) regs.emplace_back(cfg.gline.num_glocks);
  std::vector<glocks::core::LockRegisters*> ptrs;
  for (auto& r : regs) ptrs.push_back(&r);
  GlineSystem sys(cfg, ptrs);
  EXPECT_EQ(sys.num_glocks(), 2u);
  EXPECT_TRUE(sys.idle());

  // The two units are independent: a holder on lock 0 does not block
  // lock 1.
  regs[0].req[0] = true;
  regs[5].req[1] = true;
  Cycle now = 0;
  for (int i = 0; i < 20; ++i) sys.tick(now++);
  EXPECT_EQ(sys.unit(0).holder(), std::optional<CoreId>(0));
  EXPECT_EQ(sys.unit(1).holder(), std::optional<CoreId>(5));
}

TEST(GlineSystem, OverWideMeshAtUnitLatencyBuildsTheTree) {
  CmpConfig cfg;
  cfg.num_cores = 81;  // 9x9 > 7x7 single-cycle reach
  std::vector<glocks::core::LockRegisters> regs;
  for (std::uint32_t c = 0; c < 81; ++c) {
    regs.emplace_back(cfg.gline.num_glocks);
  }
  std::vector<glocks::core::LockRegisters*> ptrs;
  for (auto& r : regs) ptrs.push_back(&r);
  // The guarded (fault-mode) transport follows the same reach rule.
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "guarded" : "clean");
    cfg.fault.enabled = faults;
    cfg.gline.signal_latency = 1;
    EXPECT_TRUE(GlineSystem(cfg, ptrs).hierarchical());  // scaling path 2
    cfg.gline.signal_latency = 2;  // scaling path 1: longer wires, flat
    EXPECT_FALSE(GlineSystem(cfg, ptrs).hierarchical());
  }
}

TEST(CostModel, MatchesTable1Formulas) {
  const auto m = CostModel::for_cores(32);
  EXPECT_EQ(m.glines, 31u);
  EXPECT_EQ(m.primary_managers, 1u);
  EXPECT_EQ(m.secondary_managers, 6u);  // round(sqrt(32))
  EXPECT_EQ(m.local_controllers, 31u);
  EXPECT_EQ(m.fx_flags, 32u);
  EXPECT_EQ(m.acquire_worst, 4u);
  EXPECT_EQ(m.acquire_best, 2u);
  EXPECT_EQ(m.release, 1u);
  const auto m9 = CostModel::for_cores(9);
  EXPECT_EQ(m9.glines, 8u);
  EXPECT_EQ(m9.secondary_managers, 3u);
}

}  // namespace
}  // namespace glocks::gline
