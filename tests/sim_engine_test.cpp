// Unit tests for the cycle engine: tick order, termination, runaway guard.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "sim/engine.hpp"

namespace glocks::sim {
namespace {

class Recorder final : public Component {
 public:
  Recorder(int id, std::vector<int>& log) : id_(id), log_(log) {}
  void tick(Cycle) override { log_.push_back(id_); }

 private:
  int id_;
  std::vector<int>& log_;
};

TEST(Engine, TicksInRegistrationOrderEveryCycle) {
  Engine e;
  std::vector<int> log;
  Recorder a(1, log), b(2, log), c(3, log);
  e.add(a);
  e.add(b);
  e.add(c);
  e.step();
  e.step();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(e.now(), 2u);
}

TEST(Engine, RunUntilStopsAtPredicate) {
  Engine e;
  std::vector<int> log;
  Recorder a(1, log);
  e.add(a);
  const Cycle end = e.run_until([&] { return log.size() >= 5; }, 1000);
  EXPECT_EQ(end, 5u);
  EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, RunUntilImmediateTrueRunsZeroCycles) {
  Engine e;
  EXPECT_EQ(e.run_until([] { return true; }, 10), 0u);
}

TEST(Engine, ThrowsOnCycleLimit) {
  Engine e;
  EXPECT_THROW(e.run_until([] { return false; }, 100), SimError);
}

TEST(Engine, HangDiagnosticListsDormantComponents) {
  // Regression: a hang in event mode must name the DORMANT components
  // with their last-wake cycles, not only the live ones — a missed wake
  // (some component slept and nothing re-armed it) is the classic
  // event-kernel bug, and the sleeper is exactly what the old report
  // omitted.
  struct OneShotSleeper final : Component {
    void tick(Cycle now) override { sleep_until(now + 3); }
  };
  struct Spinner final : Component {
    void tick(Cycle) override {}
  };
  Engine e;
  OneShotSleeper sleeper;
  Spinner spinner;
  e.add(sleeper, "the-sleeper");
  e.add(spinner, "the-spinner");
  try {
    e.run_until([] { return false; }, 50);
    FAIL() << "expected the cycle-limit hang";
  } catch (const SimError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("dormant components"), std::string::npos) << what;
    EXPECT_NE(what.find("the-sleeper"), std::string::npos) << what;
    EXPECT_NE(what.find("last wake scheduled"), std::string::npos) << what;
    // The live component is not in the dormant list's terms.
    EXPECT_NE(what.find("deadlock or runaway"), std::string::npos) << what;
  }
}

TEST(Engine, ComponentSeesMonotonicCycles) {
  struct CycleChecker final : Component {
    Cycle last = kNoCycle;
    void tick(Cycle now) override {
      if (last != kNoCycle) {
        EXPECT_EQ(now, last + 1);
      }
      last = now;
    }
  };
  Engine e;
  CycleChecker c;
  e.add(c);
  for (int i = 0; i < 10; ++i) e.step();
  EXPECT_EQ(c.last, 9u);
}

}  // namespace
}  // namespace glocks::sim
