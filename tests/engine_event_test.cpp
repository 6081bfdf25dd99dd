// Tests of the event-driven scheduler layered on the cycle engine:
// wake ordering, the N -> N+1 visibility bump, clock-jump bounds, and —
// the property everything else exists to protect — bit-identity between
// the event kernel and the serial tick-everything reference for every
// registry workload under every spinning lock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "result_diff.hpp"
#include "sim/engine.hpp"
#include "workloads/micro.hpp"
#include "workloads/registry.hpp"

namespace glocks::sim {
namespace {

/// Records (id, cycle) for every tick, then goes straight back to sleep.
/// Work arrives only via wake()/wake_at() from the test body.
class Napper final : public Component {
 public:
  Napper(int id, std::vector<std::pair<int, Cycle>>& log)
      : id_(id), log_(log) {}
  void tick(Cycle now) override {
    log_.emplace_back(id_, now);
    sleep();
  }

 private:
  int id_;
  std::vector<std::pair<int, Cycle>>& log_;
};

/// Wakes a peer during its own tick at a chosen cycle, then sleeps.
class Waker final : public Component {
 public:
  Waker(Component& target, Cycle fire,
        std::vector<std::pair<int, Cycle>>& log)
      : target_(target), fire_(fire), log_(log) {}
  void tick(Cycle now) override {
    log_.emplace_back(-1, now);
    if (now == fire_) {
      target_.wake();
      sleep();
      return;
    }
    // Stay active until the firing cycle so the wake happens mid-scan.
  }

 private:
  Component& target_;
  Cycle fire_;
  std::vector<std::pair<int, Cycle>>& log_;
};

using Log = std::vector<std::pair<int, Cycle>>;

TEST(EngineEvent, SameCycleWakesTickInRegistrationOrder) {
  Engine e;
  Log log;
  Napper a(1, log), b(2, log), c(3, log);
  e.add(a);
  e.add(b);
  e.add(c);
  // First cycle: everyone ticks once (registration order) and sleeps.
  e.step();
  log.clear();

  // Arm the same wake cycle in scrambled order; the heap tie-breaks on
  // the slot index, so the scan still visits registration order.
  c.wake_at(10);
  a.wake_at(10);
  b.wake_at(10);
  e.run_until([&] { return log.size() >= 3; }, 100);

  const Log want = {{1, 10}, {2, 10}, {3, 10}};
  EXPECT_EQ(log, want);
}

TEST(EngineEvent, WakeFromEarlierSlotLandsSameCycle) {
  // A producer in an earlier slot wakes a later-slot sleeper mid-scan:
  // the sleeper's slot has not been visited yet, so it ticks this very
  // cycle — exactly when the serial loop would have ticked it.
  Engine e;
  Log log;
  Napper sleeper(1, log);
  Waker producer(sleeper, 4, log);
  e.add(producer);  // slot 0
  e.add(sleeper);   // slot 1
  e.step();         // both tick at 0; sleeper naps, producer stays up
  log.clear();
  e.run_until([&] { return !log.empty() && log.back().first == 1; }, 100);
  // The sleeper's one post-nap tick happens at the producer's fire
  // cycle, not one later.
  EXPECT_EQ(log.back(), (std::pair<int, Cycle>{1, 4}));
}

TEST(EngineEvent, WakeFromLaterSlotBumpsToNextCycle) {
  // The mirror case: the producer sits in a *later* slot, so by the time
  // it fires, the sleeper's slot has already been passed over this
  // cycle. The wake must land on the next cycle — the serial rule that
  // state written during cycle N is observed at N+1.
  Engine e;
  Log log;
  Napper sleeper(1, log);
  Waker producer(sleeper, 4, log);
  e.add(sleeper);   // slot 0
  e.add(producer);  // slot 1
  e.step();
  log.clear();
  e.run_until([&] { return !log.empty() && log.back().first == 1; }, 100);
  EXPECT_EQ(log.back(), (std::pair<int, Cycle>{1, 5}));
}

TEST(EngineEvent, WakeInThePastIsACheckedError) {
  Engine e;
  Log log;
  Napper a(1, log);
  e.add(a);
  for (int i = 0; i < 5; ++i) e.step();
  ASSERT_EQ(e.now(), 5u);
  EXPECT_THROW(a.wake_at(3), SimError);
}

TEST(EngineEvent, ClockJumpStopsExactlyAtNearestWake) {
  Engine e;
  Log log;
  Napper a(1, log), b(2, log);
  e.add(a);
  e.add(b);
  e.step();  // both nap immediately
  log.clear();

  a.wake_at(100);
  b.wake_at(250);
  e.run_until([&] { return log.size() >= 2; }, 1000);

  // Each wake is honoured at exactly its cycle: the jump lands *on* the
  // nearest wake, never beyond it, and the second wake is not consumed
  // by the first jump.
  const Log want = {{1, 100}, {2, 250}};
  EXPECT_EQ(log, want);

  // Both gaps were skipped, not stepped: cycles 1..99 and 101..249 never
  // ran a scan.
  const EnginePerf& p = e.perf();
  EXPECT_GE(p.clock_jumps, 2u);
  EXPECT_GE(p.cycles_skipped, 99u + 149u);
  EXPECT_LE(p.cycles_stepped, 10u);
}

TEST(EngineEvent, SerialModeIgnoresSleep) {
  // In kSerial mode sleep()/wake() are no-ops: every component ticks
  // every cycle, preserving the original reference loop.
  Engine e(EngineMode::kSerial);
  Log log;
  Napper a(1, log);
  e.add(a);
  for (int i = 0; i < 5; ++i) e.step();
  EXPECT_EQ(log.size(), 5u);
}

// The headline acceptance property: for every workload in the registry
// under every software lock (whose spinners park on their L1 line in the
// event kernel) and under GLocks, the event-driven kernel reproduces the
// serial reference bit-for-bit across every reported metric (cycles,
// per-category breakdowns, cache and directory counters, G-line traffic,
// energy, the lock census — everything diff_results covers).
constexpr locks::LockKind kEquivalenceLocks[] = {
    locks::LockKind::kMcs,   locks::LockKind::kTatas, locks::LockKind::kTicket,
    locks::LockKind::kArray, locks::LockKind::kClh,   locks::LockKind::kGlock};

/// Software-lock points run on 16 cores at scale 0.1, which keeps the
/// serial reference runs short; GLock points keep the 32-core machine.
harness::RunConfig mode_config(locks::LockKind lock) {
  harness::RunConfig cfg;
  cfg.cmp.num_cores = lock == locks::LockKind::kGlock ? 32 : 16;
  cfg.policy.highly_contended = lock;
  cfg.seed = 5;
  return cfg;
}

/// Runs the workload under both kernels; returns diff_results of the two
/// and stores how many spinners the event run parked in `parks`.
std::string diff_modes(harness::Workload& serial_wl,
                       harness::Workload& event_wl, harness::RunConfig cfg,
                       std::uint64_t& parks) {
  cfg.cmp.engine_mode = EngineMode::kSerial;
  const auto serial = harness::run_workload(serial_wl, cfg);
  EXPECT_EQ(serial.perf.spin.parks, 0u) << "the serial kernel parked";
  cfg.cmp.engine_mode = EngineMode::kEventDriven;
  const auto event = harness::run_workload(event_wl, cfg);
  parks = event.perf.spin.parks;
  return test::diff_results(serial, event);
}

constexpr double kScale = 0.1;
constexpr double kGlockScale = 0.25;

class EveryWorkloadEventVsSerial
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, locks::LockKind>> {};

TEST_P(EveryWorkloadEventVsSerial, EventKernelIsBitIdenticalToSerial) {
  const auto& [index, lock] = GetParam();
  const auto& entry = workloads::registry()[index];
  const double scale = lock == locks::LockKind::kGlock ? kGlockScale : kScale;
  auto serial_wl = entry.make(scale);
  auto event_wl = entry.make(scale);
  std::uint64_t parks = 0;
  const std::string diff =
      diff_modes(*serial_wl, *event_wl, mode_config(lock), parks);
  EXPECT_EQ(diff, "") << entry.name << "/" << locks::to_string(lock) << ": "
                      << diff;
  // The comparison must exercise spin parking wherever software spins.
  if (lock != locks::LockKind::kGlock) EXPECT_GT(parks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkloadEventVsSerial,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, workloads::registry().size()),
        ::testing::ValuesIn(kEquivalenceLocks)),
    [](const auto& info) {
      return workloads::registry()[std::get<0>(info.param)].name + "_" +
             std::string(locks::to_string(std::get<1>(info.param)));
    });

// Both software barriers spin with spin_until. ACTR and OCEAN above use
// the tree barrier under each lock; here ACTR runs each barrier kind
// under MCS.
TEST(EventVsSerial, SoftwareBarriersAreBitIdentical) {
  for (const sync::BarrierKind kind :
       {sync::BarrierKind::kTree, sync::BarrierKind::kCentral}) {
    SCOPED_TRACE(static_cast<int>(kind));
    workloads::MicroParams p;
    p.total_iterations = 100;
    p.barrier = kind;
    workloads::AffinityCounter serial_wl(p), event_wl(p);
    std::uint64_t parks = 0;
    const std::string diff = diff_modes(
        serial_wl, event_wl, mode_config(locks::LockKind::kMcs), parks);
    EXPECT_EQ(diff, "") << diff;
    EXPECT_GT(parks, 0u);
  }
}

// sweep-faulted runs MCS with G-line and mesh faults armed: retries and
// end-to-end re-issues must not disturb a parked spinner's replay.
TEST(EventVsSerial, FaultedMcsIsBitIdentical) {
  auto serial_wl = workloads::make_workload("SCTR", kScale);
  auto event_wl = workloads::make_workload("SCTR", kScale);
  harness::RunConfig cfg = mode_config(locks::LockKind::kMcs);
  cfg.cmp.fault =
      fault::parse_fault_spec("drop=0.001,noise=0.0001,mesh:rate=0.0005");
  std::uint64_t parks = 0;
  const std::string diff = diff_modes(*serial_wl, *event_wl, cfg, parks);
  EXPECT_EQ(diff, "") << diff;
  EXPECT_GT(parks, 0u);
}

}  // namespace
}  // namespace glocks::sim
