// Tests of the event-driven scheduler layered on the cycle engine:
// wake ordering, the N -> N+1 visibility bump, clock-jump bounds, and —
// the property everything else exists to protect — bit-identity between
// the event kernel and the serial tick-everything reference for every
// registry workload under every spinning lock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
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

// ---------------------------------------------------------------------
// Active-set boundaries. The event kernel keeps its active slots in
// 64-bit words; these machines span three words so mid-scan wakes cross
// word boundaries in both directions.

/// One piece of mail: `ttl` more relays to the next slot up.
struct Mail {
  int tag;
  int ttl;
};

/// An observed delivery: (mailbox, cycle, tag, ttl).
using MailLog = std::vector<std::tuple<int, Cycle, int, int>>;

/// A scripted send: at cycle `at`, mailbox `from` posts `mail` to `to`.
struct Send {
  Cycle at;
  int from;
  int to;
  Mail mail;
};

/// Drains and logs its inbox every tick, relays mail with ttl left to
/// the next mailbox up (wrapping), performs its scripted sends, then
/// sleeps until its next scripted send. Under kSerial it ticks every
/// cycle, so its log holds the first cycle each piece of mail was
/// observable — the log the event kernel must reproduce exactly.
class Mailbox final : public Component {
 public:
  Mailbox(int id, std::vector<Mailbox>* all, const std::vector<Send>& script,
          MailLog& log)
      : id_(id), all_(all), script_(script), log_(log) {}

  void post(Mail m) {
    inbox_.push_back(m);
    wake();
  }
  std::vector<Mail>& inbox() { return inbox_; }

  void tick(Cycle now) override {
    std::vector<Mail> mail;
    mail.swap(inbox_);
    for (const Mail& m : mail) {
      log_.emplace_back(id_, now, m.tag, m.ttl);
      if (m.ttl > 0) {
        const auto next = static_cast<std::size_t>(id_ + 1) % all_->size();
        (*all_)[next].post(Mail{m.tag, m.ttl - 1});
      }
    }
    Cycle next_send = kNoCycle;
    for (const Send& s : script_) {
      if (s.from != id_) continue;
      if (s.at == now) (*all_)[static_cast<std::size_t>(s.to)].post(s.mail);
      if (s.at > now) next_send = std::min(next_send, s.at);
    }
    if (next_send == kNoCycle) {
      sleep();
    } else {
      sleep_until(next_send);
    }
  }

 private:
  int id_;
  std::vector<Mailbox>* all_;
  const std::vector<Send>& script_;
  MailLog& log_;
  std::vector<Mail> inbox_;
};

constexpr int kMailboxes = 140;  // slots 0..139: three active-set words

/// A machine of kMailboxes mailboxes running `script` on one engine.
struct PostOffice {
  PostOffice(EngineMode mode, const std::vector<Send>& script)
      : engine(mode) {
    boxes.reserve(kMailboxes);
    for (int i = 0; i < kMailboxes; ++i) {
      boxes.emplace_back(i, &boxes, script, log);
    }
    for (Mailbox& b : boxes) engine.add(b);
  }
  void run_to(Cycle end) {
    engine.run_until([&] { return engine.now() >= end; }, end);
  }

  Engine engine;
  MailLog log;
  std::vector<Mailbox> boxes;
};

const std::vector<Send>& boundary_script() {
  static const std::vector<Send> script = {
      {3, 60, 61, {1, 5}},    // relays 61..66 in one cycle: 63 -> 64
      {5, 64, 63, {2, 0}},    // 64 -> 63: already passed, next cycle
      {7, 125, 126, {3, 4}},  // relays 126..130 in one cycle: 127 -> 128
      {9, 128, 127, {4, 0}},  // 128 -> 127: next cycle
      {11, 63, 63, {5, 0}},   // self-wake: next cycle
      {13, 138, 139, {6, 2}}, // relay wraps 139 -> 0: next cycle
      {15, 5, 130, {7, 0}},   // skips a whole word: same cycle
      {17, 63, 100, {8, 0}},  // same cycle
      {17, 100, 63, {9, 0}},  // next cycle
      {19, 135, 10, {10, 0}}, // wakes a slot asleep since cycle 0
      {21, 64, 64, {11, 0}},  // self-wake on a word's first bit
      {21, 127, 127, {12, 0}},// self-wake on a word's last bit
  };
  return script;
}

constexpr Cycle kMailEnd = 30;

TEST(EngineActiveSet, MidScanWakesAcrossWordsMatchSerial) {
  PostOffice serial(EngineMode::kSerial, boundary_script());
  PostOffice event(EngineMode::kEventDriven, boundary_script());
  serial.run_to(kMailEnd);
  event.run_to(kMailEnd);
  EXPECT_EQ(event.log, serial.log);

  // The boundary cases themselves, as the serial loop delivers them.
  const MailLog want = {
      {61, 3, 1, 5},  {62, 3, 1, 4},  {63, 3, 1, 3},   {64, 3, 1, 2},
      {65, 3, 1, 1},  {66, 3, 1, 0},  {63, 6, 2, 0},   {126, 7, 3, 4},
      {127, 7, 3, 3}, {128, 7, 3, 2}, {129, 7, 3, 1},  {130, 7, 3, 0},
      {127, 10, 4, 0}, {63, 12, 5, 0}, {139, 13, 6, 2}, {0, 14, 6, 1},
      {1, 14, 6, 0},  {130, 15, 7, 0}, {100, 17, 8, 0}, {63, 18, 9, 0},
      {10, 20, 10, 0}, {64, 22, 11, 0}, {127, 22, 12, 0}};
  EXPECT_EQ(serial.log, want);

  // The event kernel stepped only the cycles with work, and ticked few
  // slots in each.
  EXPECT_LT(event.engine.perf().ticks_executed,
            serial.engine.perf().ticks_executed / 10);
}

TEST(EngineActiveSet, SaveLoadMidRunContinuesIdentically) {
  PostOffice serial(EngineMode::kSerial, boundary_script());
  serial.run_to(kMailEnd);

  // Pause at cycle 10: mail posted at cycle 9 to a passed slot (127) is
  // waiting in its inbox with its wake in the heap.
  PostOffice original(EngineMode::kEventDriven, boundary_script());
  original.run_to(10);
  ASSERT_EQ(original.boxes[127].inbox().size(), 1u);
  ckpt::ArchiveWriter w;
  w.begin_section(ckpt::tags::kEngine);
  original.engine.save(w);
  w.end_section();

  PostOffice restored(EngineMode::kEventDriven, boundary_script());
  ckpt::ArchiveReader r(w.buffer());
  ASSERT_TRUE(r.next_section());
  restored.engine.load(r);
  for (int i = 0; i < kMailboxes; ++i) {
    restored.boxes[i].inbox() = original.boxes[i].inbox();
  }
  const std::size_t before = original.log.size();
  original.run_to(kMailEnd);
  restored.run_to(kMailEnd);

  const MailLog tail(original.log.begin() + static_cast<long>(before),
                     original.log.end());
  EXPECT_EQ(restored.log, tail);
  EXPECT_EQ(original.log, serial.log);
  EXPECT_EQ(restored.engine.now(), original.engine.now());
  EXPECT_EQ(restored.engine.perf().ticks_executed,
            original.engine.perf().ticks_executed);
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

// The G-line system sleeps to its guarded units' deadlines (frames
// maturing, watchdogs, noise cycles) in fault mode; the serial kernel
// ticks it every cycle. Under sweep-faulted's plan, and under a stuck-at
// plan that kills a link and demotes the GLock to its software fallback,
// both kernels must agree on every reported metric.
TEST(EventVsSerial, FaultedGlockIsBitIdentical) {
  for (const char* spec :
       {"drop=0.001,noise=0.0001,mesh:rate=0.0005",
        "drop=0.001,noise=0.0001,stuck=0.05,stuck_horizon=5000"}) {
    SCOPED_TRACE(spec);
    auto serial_wl = workloads::make_workload("SCTR", kScale);
    auto event_wl = workloads::make_workload("SCTR", kScale);
    harness::RunConfig cfg = mode_config(locks::LockKind::kGlock);
    cfg.cmp.fault = fault::parse_fault_spec(spec);
    cfg.cmp.engine_mode = EngineMode::kSerial;
    const auto serial = harness::run_workload(*serial_wl, cfg);
    cfg.cmp.engine_mode = EngineMode::kEventDriven;
    const auto event = harness::run_workload(*event_wl, cfg);
    const std::string diff = test::diff_results(serial, event);
    EXPECT_EQ(diff, "") << diff;
    EXPECT_GT(serial.gline.acquires_granted, 0u);
    if (cfg.cmp.fault.stuck_rate > 0.0) {
      EXPECT_GT(serial.fault.fallback_demotions, 0u);
    }
  }
}

}  // namespace
}  // namespace glocks::sim
