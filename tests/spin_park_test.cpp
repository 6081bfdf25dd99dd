// Tests of spin parking: a spin_until whose load hits and fails its exit
// test parks on the resident L1 line under the event-driven kernel, and
// the L1 replays the elided iterations when an Inv or a forward for the
// line arrives. Every case runs the same program under kSerial (which
// never parks) and kEventDriven and demands identical behaviour: the
// cycle each spin exits, every L1's serialized state (lines, lru, MSHR,
// counters) and every core's micro-op count at each cycle where no core
// is parked, and the final per-category cycles.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "core/core.hpp"
#include "harness/cmp_system.hpp"
#include "locks/queue_locks.hpp"

namespace glocks {
namespace {

using core::Category;
using core::Task;
using core::ThreadApi;

constexpr std::uint32_t kCores = 4;

/// One step of a scripted thread.
struct Step {
  enum class Kind { kCompute, kLoad, kStore, kSpin, kLockedSpin };
  Kind kind;
  Addr addr = 0;
  Word value = 0;  ///< compute cycles, store value, or the awaited value
};

using Program = std::array<std::vector<Step>, kCores>;

Step compute(Word n) { return {Step::Kind::kCompute, 0, n}; }
Step load(Addr a) { return {Step::Kind::kLoad, a, 0}; }
Step store(Addr a, Word v) { return {Step::Kind::kStore, a, v}; }
/// spin_until(a, == v) in the Busy category: live iterations charge Busy,
/// the cycles between them Memory.
Step spin(Addr a, Word v) { return {Step::Kind::kSpin, a, v}; }
/// The same spin inside a Lock scope.
Step locked_spin(Addr a, Word v) { return {Step::Kind::kLockedSpin, a, v}; }

Task<void> wait_for(ThreadApi& t, Addr a, Word want) {
  co_await t.spin_until(a, [want](Word v) { return v == want; });
}

Task<void> run_steps(ThreadApi& t, const std::vector<Step>& steps,
                     std::vector<Cycle>& exits) {
  for (const Step& s : steps) {
    switch (s.kind) {
      case Step::Kind::kCompute:
        co_await t.compute(s.value);
        break;
      case Step::Kind::kLoad:
        co_await t.load(s.addr);
        break;
      case Step::Kind::kStore:
        co_await t.store(s.addr, s.value);
        break;
      case Step::Kind::kSpin:
        co_await wait_for(t, s.addr, s.value);
        exits.push_back(t.now());
        break;
      case Step::Kind::kLockedSpin: {
        core::CategoryScope scope(t, Category::kLock);
        co_await wait_for(t, s.addr, s.value);
        exits.push_back(t.now());
        break;
      }
    }
  }
}

CmpConfig machine(EngineMode mode) {
  CmpConfig cfg;
  cfg.num_cores = kCores;
  cfg.l1.size_bytes = 1024;  // 4 sets x 4 ways: evictions are easy to force
  cfg.l1.ways = 4;
  cfg.engine_mode = mode;
  return cfg;
}

// Line addresses: all map to L1 set 0 (4 sets) and to different homes.
constexpr Addr kA = 0x10000;
constexpr Addr kB = kA + 4 * kLineBytes;
constexpr Addr kC = kA + 8 * kLineBytes;
constexpr Addr kD = kA + 12 * kLineBytes;
constexpr Addr kE = kA + 16 * kLineBytes;

constexpr std::array<Addr, 5> kProbes = {kA, kB, kC, kD, kE};

/// Everything a case compares between the two kernels.
struct Outcome {
  std::array<std::vector<Cycle>, kCores> exits;
  std::array<std::uint64_t, kCores> uops{};
  std::array<std::array<std::uint64_t, core::kNumCategories>, kCores>
      cycles{};
  std::array<mem::L1Stats, kCores> l1{};
  std::array<mem::SpinStats, kCores> spin{};
  /// Final MESI state of each kProbes line in every L1.
  std::array<std::array<char, kProbes.size()>, kCores> states{};
  /// Per cycle: a digest of every L1's checkpoint bytes and every core's
  /// micro-op count, or 0 at cycles where some core is parked.
  std::vector<std::uint64_t> digests;
  Cycle end = 0;
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(harness::CmpSystem& sys) {
  std::uint64_t h = 1469598103934665603ull;
  for (CoreId c = 0; c < kCores; ++c) {
    if (sys.core(c).parked()) return 0;
    ckpt::ArchiveWriter w;
    w.begin_section(ckpt::tags::kHierarchy);
    sys.hierarchy().l1(c).save(w);
    w.u64(sys.core(c).bound() ? sys.core(c).context().uops : 0);
    w.end_section();
    h = fnv1a(w.buffer(), h);
  }
  return h;
}

/// Binds core `c`'s thread; `exits` collects the cycles its spins end.
using Binder =
    std::function<Task<void>(CoreId c, ThreadApi&, std::vector<Cycle>&)>;

/// Builds a machine in `mode`, binds the thread `setup` returns for it to
/// every core, and runs it, pausing at every cycle below `horizon` to
/// record a digest.
Outcome run(EngineMode mode,
            const std::function<Binder(harness::CmpSystem&)>& setup,
            Cycle horizon = 20000) {
  harness::CmpSystem sys(machine(mode));
  const Binder bind = setup(sys);
  Outcome out;
  for (CoreId c = 0; c < kCores; ++c) {
    sys.core(c).bind(c, kCores, sys.hierarchy().l1(c),
                     [&, c](ThreadApi& api) {
                       return bind(c, api, out.exits[c]);
                     });
    sys.core(c).context().engine = &sys.engine();
  }
  std::vector<Cycle> pauses;
  for (Cycle at = 1; at < horizon; ++at) pauses.push_back(at);
  out.end = sys.run(pauses,
                    [&](Cycle) { out.digests.push_back(digest(sys)); });
  for (CoreId c = 0; c < kCores; ++c) {
    const core::ThreadContext& t = sys.core(c).context();
    out.uops[c] = t.uops;
    out.cycles[c] = t.cycles;
    out.l1[c] = sys.hierarchy().l1(c).stats();
    out.spin[c] = sys.hierarchy().l1(c).spin_stats();
    for (std::size_t i = 0; i < kProbes.size(); ++i) {
      out.states[c][i] =
          sys.hierarchy().l1(c).probe_state(line_of(kProbes[i]));
    }
  }
  return out;
}

Outcome run_program(EngineMode mode, const Program& program) {
  return run(mode, [&program](harness::CmpSystem&) -> Binder {
    return [&program](CoreId c, ThreadApi& api, std::vector<Cycle>& exits) {
      return run_steps(api, program[c], exits);
    };
  });
}

/// The serial run is the oracle: same exit cycles, same end state, and
/// the same L1 bytes and micro-op counts at every cycle where the event
/// run has no parked core (in particular, right after each unpark).
void expect_same(const Outcome& serial, const Outcome& event) {
  EXPECT_EQ(serial.end, event.end);
  for (CoreId c = 0; c < kCores; ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(serial.spin[c].parks, 0u) << "the serial kernel parked";
    EXPECT_EQ(serial.exits[c], event.exits[c]);
    EXPECT_EQ(serial.uops[c], event.uops[c]);
    EXPECT_EQ(serial.cycles[c], event.cycles[c]);
    EXPECT_EQ(serial.l1[c].loads, event.l1[c].loads);
    EXPECT_EQ(serial.l1[c].hits, event.l1[c].hits);
    EXPECT_EQ(serial.l1[c].misses, event.l1[c].misses);
    EXPECT_EQ(serial.states[c], event.states[c]);
  }
  ASSERT_EQ(serial.digests.size(), event.digests.size());
  std::size_t compared = 0;
  for (std::size_t i = 0; i < serial.digests.size(); ++i) {
    if (event.digests[i] == 0) continue;
    ++compared;
    ASSERT_EQ(serial.digests[i], event.digests[i])
        << "machine state differs at cycle " << i + 1;
  }
  EXPECT_GT(compared, 0u);
}

/// Runs `make(delay)` under both kernels for a few writer delays, so the
/// unparking message lands on every phase of the spin period.
void check_phases(const std::function<Program(Word)>& make,
                  const std::function<void(const mem::SpinStats&)>& spin) {
  for (Word delay = 3000; delay < 3004; ++delay) {
    SCOPED_TRACE(delay);
    const Program p = make(delay);
    const Outcome serial = run_program(EngineMode::kSerial, p);
    const Outcome event = run_program(EngineMode::kEventDriven, p);
    expect_same(serial, event);
    EXPECT_GE(event.spin[0].parks, 1u);
    EXPECT_GT(event.spin[0].elided, 0u);
    spin(event.spin[0]);
  }
}

TEST(SpinPark, InvOnSharedLineResumesAtSerialCycle) {
  // Core 1 reads A first, so core 0's copy is Shared; core 2's store
  // invalidates it.
  check_phases(
      [](Word delay) {
        Program p;
        p[0] = {compute(1000), spin(kA, 1)};
        p[1] = {load(kA)};
        p[2] = {compute(delay), store(kA, 1)};
        return p;
      },
      [](const mem::SpinStats& s) {
        EXPECT_EQ(s.unparks_inv, s.parks);
        EXPECT_EQ(s.unparks_fwd, 0u);
      });
}

TEST(SpinPark, FwdGetSOnExclusiveLineResumesAtSerialCycle) {
  // Core 0 owns A in E; core 1's read downgrades it (the spin goes on,
  // on a Shared copy, and parks again), then core 2's store ends it.
  check_phases(
      [](Word delay) {
        Program p;
        p[0] = {locked_spin(kA, 1)};
        p[1] = {compute(delay), load(kA)};
        p[2] = {compute(delay + 2000), store(kA, 1)};
        return p;
      },
      [](const mem::SpinStats& s) {
        EXPECT_EQ(s.parks, 2u);
        EXPECT_EQ(s.unparks_fwd, 1u);
        EXPECT_EQ(s.unparks_inv, 1u);
      });
}

TEST(SpinPark, FwdGetXOnModifiedLineResumesAtSerialCycle) {
  // Core 0 writes A (M) and spins on it in a Busy scope; core 2's store
  // takes the line away with a FwdGetX.
  check_phases(
      [](Word delay) {
        Program p;
        p[0] = {store(kA, 0), spin(kA, 1)};
        p[2] = {compute(delay), store(kA, 1)};
        return p;
      },
      [](const mem::SpinStats& s) {
        EXPECT_EQ(s.parks, 1u);
        EXPECT_EQ(s.unparks_fwd, 1u);
        EXPECT_EQ(s.unparks_inv, 0u);
      });
}

TEST(SpinPark, EvictionAfterUnparkPicksTheSerialVictim) {
  // Set 0 of core 0's L1 holds B, C and A (spun on, downgraded by a
  // FwdGetS, then invalidated and refetched); D fills the set and E must
  // evict the least recently used line.
  Program p;
  p[0] = {load(kB), load(kC), locked_spin(kA, 1), load(kD), load(kE)};
  p[1] = {compute(2500), load(kA)};
  p[2] = {compute(4001), store(kA, 1)};
  const Outcome serial = run_program(EngineMode::kSerial, p);
  const Outcome event = run_program(EngineMode::kEventDriven, p);
  expect_same(serial, event);
  EXPECT_EQ(event.spin[0].unparks_fwd, 1u);
  EXPECT_EQ(event.states[0][1], 'I') << "B, the oldest line, is the victim";
}

Task<void> mcs_holder(ThreadApi& t, locks::Lock& lock, Word hold) {
  co_await lock.acquire(t);
  co_await t.compute(hold);
  co_await lock.release(t);
}

Task<void> mcs_waiter(ThreadApi& t, locks::Lock& lock) {
  co_await t.compute(2000);
  co_await lock.acquire(t);
  co_await lock.release(t);
}

Task<void> idle(ThreadApi& t) { co_await t.compute(1); }

TEST(SpinPark, McsReleaseSideLinkWaitParksAndUnparks) {
  // Core 1 takes the free lock and releases it after `hold` cycles; core
  // 0 queues behind it. When the release starts just after core 0's
  // tail swap, it finds no successor linked, loses the tail CAS, and
  // spins on its own next field until core 0's link store lands. The
  // layout makes that window real: the tail's home is core 1's tile,
  // while core 1's queue node lives on tile 3, away from both cores, so
  // the link store's forward arrives after the CAS completes. Core 1
  // never spins anywhere else, so a park on its L1 is that wait.
  const auto run_hold = [](EngineMode mode, Word hold, Cycle horizon) {
    const auto setup = [hold](harness::CmpSystem& sys) -> Binder {
      // McsLock allocates the tail, then one queue node per thread.
      const mem::AddressMap& homes = sys.hierarchy().address_map();
      while (homes.home_of_addr(sys.heap().alloc_line()) != 0) {
      }
      auto lock = std::make_shared<locks::McsLock>(sys.heap(), kCores);
      return [lock, hold](CoreId c, ThreadApi& api,
                          std::vector<Cycle>&) -> Task<void> {
        if (c == 1) return mcs_holder(api, *lock, hold);
        if (c == 0) return mcs_waiter(api, *lock);
        return idle(api);
      };
    };
    return run(mode, setup, horizon);
  };
  Word hold = 0;
  for (; hold < 3000; ++hold) {
    const Outcome probe = run_hold(EngineMode::kEventDriven, hold, 1);
    if (probe.spin[1].parks > 0) break;
  }
  ASSERT_LT(hold, 3000u) << "no hold time raced the release with the link";
  SCOPED_TRACE(hold);
  const Outcome event = run_hold(EngineMode::kEventDriven, hold, 20000);
  EXPECT_EQ(event.spin[1].unparks_fwd, event.spin[1].parks);
  const Outcome serial = run_hold(EngineMode::kSerial, hold, 20000);
  expect_same(serial, event);
}

TEST(SpinPark, HangReportNamesTheParkedCoreAndLine) {
  Program p;
  p[0] = {store(kA, 7), spin(kA, 1)};
  p[2] = {compute(3000), store(kA, 1)};
  harness::CmpSystem sys(machine(EngineMode::kEventDriven));
  std::vector<Cycle> exits;
  for (CoreId c = 0; c < kCores; ++c) {
    sys.core(c).bind(c, kCores, sys.hierarchy().l1(c),
                     [&, c](ThreadApi& api) {
                       return run_steps(api, p[c], exits);
                     });
    sys.core(c).context().engine = &sys.engine();
  }
  // At cycle 2000 core 0 spins on its Modified copy of A (value 7).
  std::string report;
  bool parked = false;
  sys.run({2000}, [&](Cycle) {
    parked = sys.core(0).parked();
    report = sys.hang_report();
  });
  ASSERT_TRUE(parked);
  std::ostringstream want;
  want << "core 0: spin-park line=" << line_of(kA) << " value=7 since=";
  EXPECT_NE(report.find(want.str()), std::string::npos) << report;
  EXPECT_NE(report.find("period=2"), std::string::npos) << report;
}

TEST(SpinPark, SerialKernelNeverParks) {
  Program p;
  p[0] = {locked_spin(kA, 1)};
  p[1] = {compute(1000), load(kA)};
  p[2] = {compute(3000), store(kA, 1)};
  const Outcome serial = run_program(EngineMode::kSerial, p);
  for (CoreId c = 0; c < kCores; ++c) {
    EXPECT_EQ(serial.spin[c].parks, 0u);
    EXPECT_EQ(serial.spin[c].elided, 0u);
  }
  EXPECT_GT(serial.l1[0].hits, 1000u) << "the spin should hit in its L1";
}

}  // namespace
}  // namespace glocks
