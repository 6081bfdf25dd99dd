#include "drivers.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/thread.hpp"
#include "gline/glock_unit.hpp"
#include "gline/hier_glock_unit.hpp"
#include "mem/hierarchy.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

using glocks::Cycle;

/// Simulated cycles one driver operation may take before the driver gives
/// up: a component that stops making progress ends the run with an error
/// instead of hanging it.
constexpr Cycle kOpCycleLimit = 1'000'000;

void check_progress(Cycle spent, const char* what) {
  if (spent > kOpCycleLimit) {
    throw std::runtime_error(std::string(what) + " made no progress in " +
                             std::to_string(kOpCycleLimit) + " cycles");
  }
}

/// Repeats `chunk` (which does some operations and returns how many)
/// until `budget_s` has passed and at least five chunks ran; returns the
/// median host nanoseconds per operation.
template <typename Chunk>
double ns_per_op(double budget_s, Chunk&& chunk) {
  std::vector<double> samples;
  const double stop = now_s() + budget_s;
  while (now_s() < stop || samples.size() < 5) {
    const double t = now_s();
    const double ops = static_cast<double>(chunk());
    samples.push_back((now_s() - t) * 1e9 / ops);
  }
  return median(samples);
}

/// A component that goes back to sleep for one or two cycles after every
/// tick, so each tick is one pending wake through the engine's queue.
class Napper final : public glocks::sim::Component {
 public:
  explicit Napper(std::uint32_t id) : id_(id) {}
  void tick(Cycle now) override { sleep_until(now + 1 + ((now + id_) & 1)); }

 private:
  std::uint32_t id_;
};

/// Engine with one napping component per engine slot of the machine
/// (five per core: core, L1, directory, sync buffer, QOLB).
double engine_ns_per_wake(std::uint32_t cores, double budget_s) {
  glocks::sim::Engine engine;
  std::vector<std::unique_ptr<Napper>> nappers;
  for (std::uint32_t i = 0; i < 5 * cores; ++i) {
    nappers.push_back(std::make_unique<Napper>(i));
    engine.add(*nappers.back());
  }
  return ns_per_op(budget_s, [&] {
    const std::uint64_t before = engine.perf().wakes_scheduled;
    for (int i = 0; i < 200; ++i) engine.step();
    return engine.perf().wakes_scheduled - before;
  });
}

/// One packet in flight, corner to opposite corner, on the machine's mesh.
/// Returns {ns per mesh tick, ns per delivered packet}.
std::pair<double, double> mesh_ns(const glocks::CmpConfig& cfg,
                                  double budget_s) {
  glocks::noc::Mesh mesh(cfg.mesh_tiles(), cfg.mesh_width(), cfg.noc);
  bool delivered = false;
  for (glocks::CoreId t = 0; t < cfg.mesh_tiles(); ++t) {
    mesh.set_sink(t, [&](glocks::noc::Packet&&) { delivered = true; });
  }
  Cycle now = 0;
  std::uint64_t ticks = 0;
  const auto one_packet = [&] {
    delivered = false;
    const Cycle start = now;
    mesh.send(0, cfg.mesh_tiles() - 1, glocks::noc::MsgClass::kRequest, 8,
              now);
    while (!delivered) {
      mesh.tick(now++);
      ++ticks;
      check_progress(now - start, "mesh driver");
    }
  };
  const double per_tick = ns_per_op(budget_s / 2, [&] {
    const std::uint64_t before = ticks;
    for (int i = 0; i < 50; ++i) one_packet();
    return ticks - before;
  });
  const double per_packet = ns_per_op(budget_s / 2, [&] {
    for (int i = 0; i < 50; ++i) one_packet();
    return 50;
  });
  return {per_tick, per_packet};
}

/// Every core keeps requesting one GLock; the holder releases as soon as
/// it is granted and requests again once the release is consumed. A round
/// is one grant. Flat unit up to a 7x7 mesh, hierarchical beyond.
double gline_ns_per_round(const glocks::CmpConfig& cfg, double budget_s) {
  std::vector<glocks::core::LockRegisters> regs(cfg.num_cores,
                                                glocks::core::LockRegisters(1));
  std::vector<glocks::core::LockRegisters*> ptrs;
  for (auto& r : regs) {
    r.req[0] = true;
    ptrs.push_back(&r);
  }
  std::unique_ptr<glocks::gline::GlockUnit> flat;
  std::unique_ptr<glocks::gline::HierGlockUnit> hier;
  if (cfg.gline.hierarchical) {
    hier = std::make_unique<glocks::gline::HierGlockUnit>(
        0, cfg.num_cores, cfg.gline.signal_latency,
        cfg.gline.max_transmitters_per_line, ptrs);
  } else {
    flat = std::make_unique<glocks::gline::GlockUnit>(
        0, cfg.num_cores, cfg.mesh_width(), cfg.gline.signal_latency, ptrs);
  }
  const auto grants = [&] {
    return hier ? hier->stats().acquires_granted
                : flat->stats().acquires_granted;
  };
  Cycle now = 0;
  std::int64_t releasing = -1;  // core whose release is in flight
  return ns_per_op(budget_s, [&] {
    const std::uint64_t before = grants();
    const Cycle start = now;
    while (grants() - before < 100) {
      check_progress(now - start, "G-line driver");
      const std::uint64_t g = grants();
      if (hier) hier->tick(now++); else flat->tick(now++);
      if (releasing >= 0 && !regs[releasing].rel[0]) {
        regs[releasing].req[0] = true;
        releasing = -1;
      }
      if (grants() != g) {
        const auto h = hier ? hier->holder() : flat->holder();
        if (h) {
          regs[*h].rel[0] = true;
          releasing = *h;
        }
      }
    }
    return grants() - before;
  });
}

/// Loads of one L1-resident line at core 0, each stepped to completion
/// through the engine (the way tests/mem_test_util.hpp drives the L1).
double l1_ns_per_hit(const glocks::CmpConfig& cfg, double budget_s) {
  glocks::sim::Engine engine;
  glocks::noc::Mesh mesh(cfg.mesh_tiles(), cfg.mesh_width(), cfg.noc);
  glocks::mem::Hierarchy hier(cfg, mesh, engine);
  const glocks::mem::MemOp load{glocks::mem::MemOp::Type::kLoad, 0x10000, 0,
                                0, glocks::mem::AmoKind::kTestAndSet};
  const auto run_load = [&] {
    bool done = false;
    const Cycle start = engine.now();
    hier.l1(0).issue(load, [&](glocks::Word) { done = true; });
    while (!done) {
      engine.step();
      check_progress(engine.now() - start, "L1 driver");
    }
  };
  run_load();  // the miss that makes the line resident
  return ns_per_op(budget_s, [&] {
    for (int i = 0; i < 1000; ++i) run_load();
    return 1000;
  });
}

}  // namespace

std::map<std::string, double> run_drivers(std::uint32_t cores,
                                          double budget_s, SpanLog& log,
                                          std::int32_t parent) {
  glocks::CmpConfig cfg;
  cfg.num_cores = cores;
  cfg.gline.hierarchical = cores > 49;
  cfg.validate();
  std::map<std::string, double> m;
  {
    const ScopedSpan s(log, "driver.sim", parent);
    m["sim.drv_ns_per_wake"] = engine_ns_per_wake(cores, budget_s);
  }
  {
    const ScopedSpan s(log, "driver.noc", parent);
    const auto [tick, packet] = mesh_ns(cfg, budget_s);
    m["noc.drv_ns_per_tick"] = tick;
    m["noc.drv_ns_per_packet"] = packet;
  }
  {
    const ScopedSpan s(log, "driver.gline", parent);
    m["gline.drv_ns_per_round"] = gline_ns_per_round(cfg, budget_s);
  }
  {
    const ScopedSpan s(log, "driver.mem", parent);
    m["mem.drv_ns_per_l1_hit"] = l1_ns_per_hit(cfg, budget_s);
  }
  return m;
}

}  // namespace perfbench
