// Tests for the G-line hardware barrier ([22]).
#include <gtest/gtest.h>

#include <vector>

#include "gline/gbarrier_unit.hpp"
#include "harness/cmp_system.hpp"
#include "harness/workload.hpp"
#include "sync/barrier.hpp"

namespace glocks {
namespace {

using core::Task;
using core::ThreadApi;

// ---------------------------------------------------------- unit level

class GBarrierFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCores = 9;

  GBarrierFixture() {
    for (std::uint32_t c = 0; c < kCores; ++c) regs_.emplace_back(1);
    for (auto& r : regs_) ptrs_.push_back(&r);
    unit_ = std::make_unique<gline::GBarrierUnit>(
        0,
        std::make_shared<const gline::TokenTree>(
            gline::TokenTree::flat(kCores, 3, 1)),
        ptrs_);
  }

  void arrive(CoreId c) {
    regs_[c].wait[0] = true;
    regs_[c].arrive[0] = true;
  }
  bool released(CoreId c) const { return !regs_[c].wait[0]; }
  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) unit_->tick(now_++);
  }

  Cycle now_ = 0;
  std::vector<core::BarrierRegisters> regs_;
  std::vector<core::BarrierRegisters*> ptrs_;
  std::unique_ptr<gline::GBarrierUnit> unit_;
};

TEST_F(GBarrierFixture, NobodyReleasedUntilLastArrival) {
  for (CoreId c = 0; c < kCores - 1; ++c) arrive(c);
  tick(20);
  for (CoreId c = 0; c < kCores - 1; ++c) {
    EXPECT_FALSE(released(c)) << c;
  }
  EXPECT_EQ(unit_->stats().episodes, 0u);
  arrive(kCores - 1);
  tick(20);
  for (CoreId c = 0; c < kCores; ++c) {
    EXPECT_TRUE(released(c)) << c;
  }
  EXPECT_EQ(unit_->stats().episodes, 1u);
  EXPECT_TRUE(unit_->idle());
}

TEST_F(GBarrierFixture, ReleaseLatencyIsConstantAndSmall) {
  // All arrive at once; count ticks until everyone is released.
  for (CoreId c = 0; c < kCores; ++c) arrive(c);
  int ticks = 0;
  bool all = false;
  while (!all) {
    tick();
    ++ticks;
    all = true;
    for (CoreId c = 0; c < kCores; ++c) all = all && released(c);
    ASSERT_LT(ticks, 20);
  }
  // Up + row report + root release + row broadcast: ~5-6 signal cycles.
  EXPECT_LE(ticks, 7);
}

TEST_F(GBarrierFixture, ReusableAcrossEpisodes) {
  for (int round = 0; round < 5; ++round) {
    for (CoreId c = 0; c < kCores; ++c) arrive(c);
    tick(12);
    for (CoreId c = 0; c < kCores; ++c) {
      ASSERT_TRUE(released(c)) << "round " << round << " core " << c;
    }
  }
  EXPECT_EQ(unit_->stats().episodes, 5u);
  EXPECT_GT(unit_->stats().signals, 0u);
}

TEST_F(GBarrierFixture, StraggersAcrossRoundsDoNotMix) {
  // Cores 0..7 race ahead; core 8 arrives late. After release, core 0
  // immediately arrives for the next round — this must not complete the
  // next episode early.
  for (CoreId c = 0; c < kCores - 1; ++c) arrive(c);
  tick(10);
  arrive(8);
  tick(10);
  EXPECT_EQ(unit_->stats().episodes, 1u);
  arrive(0);  // early arrival for round 2
  tick(20);
  EXPECT_EQ(unit_->stats().episodes, 1u);  // still waiting for the rest
  EXPECT_FALSE(released(0));
}

TEST_F(GBarrierFixture, WireCountMatchesLockNetwork) {
  EXPECT_EQ(unit_->num_glines(), 8u);  // C - 1, like a GLock's network
}

// -------------------------------------------------------- system level

struct GBarrierStress {
  sync::Barrier* barrier = nullptr;
  std::vector<int> phase;
  int violations = 0;

  Task<void> body(ThreadApi& t, int rounds, std::uint32_t n) {
    for (int r = 0; r < rounds; ++r) {
      co_await t.compute(1 + (t.thread_id() * 7 + r * 13) % 40);
      co_await barrier->await(t);
      ++phase[t.thread_id()];
      for (std::uint32_t o = 0; o < n; ++o) {
        if (phase[o] < phase[t.thread_id()] - 1) ++violations;
      }
    }
  }
};

TEST(GlineBarrier, SynchronizesLikeTheSoftwareOne) {
  CmpConfig cfg;
  cfg.num_cores = 16;
  harness::CmpSystem sys(cfg);
  harness::WorkloadContext ctx(sys, harness::LockPolicy{}, 1);
  GBarrierStress stress;
  stress.barrier = &ctx.make_gline_barrier();
  stress.phase.assign(16, 0);
  for (CoreId c = 0; c < 16; ++c) {
    sys.core(c).bind(c, 16, sys.hierarchy().l1(c), [&](ThreadApi& t) {
      return stress.body(t, 12, 16);
    });
  }
  sys.run();
  EXPECT_EQ(stress.violations, 0);
  EXPECT_EQ(sys.glines().total_barrier_stats().episodes, 12u);
  // Zero memory traffic from the barrier itself.
  EXPECT_EQ(sys.mesh().stats().total_bytes(), 0u);
}

TEST(GlineBarrier, MuchFasterThanSoftwareTree) {
  auto run_with = [](bool hardware) {
    CmpConfig cfg;
    cfg.num_cores = 32;
    harness::CmpSystem sys(cfg);
    harness::WorkloadContext ctx(sys, harness::LockPolicy{}, 1);
    GBarrierStress stress;
    stress.barrier = hardware ? &ctx.make_gline_barrier()
                              : &ctx.make_tree_barrier();
    stress.phase.assign(32, 0);
    for (CoreId c = 0; c < 32; ++c) {
      sys.core(c).bind(c, 32, sys.hierarchy().l1(c), [&](ThreadApi& t) {
        return stress.body(t, 10, 32);
      });
    }
    return sys.run();
  };
  const Cycle hw = run_with(true);
  const Cycle sw = run_with(false);
  EXPECT_LT(hw * 3, sw);  // at least 3x faster end-to-end
}

TEST(GlineBarrier, ProvisioningIsEnforced) {
  CmpConfig cfg;
  cfg.num_cores = 4;
  cfg.gline.num_gbarriers = 1;
  harness::CmpSystem sys(cfg);
  harness::WorkloadContext ctx(sys, harness::LockPolicy{}, 1);
  ctx.make_gline_barrier();
  EXPECT_THROW(ctx.make_gline_barrier(), SimError);
}

}  // namespace
}  // namespace glocks
