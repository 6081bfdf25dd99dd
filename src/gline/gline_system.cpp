#include "gline/gline_system.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace glocks::gline {

GlineSystem::GlineSystem(
    const CmpConfig& cfg, std::vector<glocks::core::LockRegisters*> regs,
    std::vector<glocks::core::BarrierRegisters*> barrier_regs) {
  const std::uint32_t width = cfg.mesh_width();
  hierarchical_ = cfg.gline.hierarchical;
  if (cfg.fault.enabled) {
    // Fault mode: every lock rides the guarded transport so the protocol
    // can detect and survive the injected schedule.
    injector_ = std::make_unique<fault::FaultInjector>(cfg.fault);
    health_ = std::make_unique<fault::GlockHealth>(cfg.gline.num_glocks);
    const std::uint32_t group =
        hierarchical_ ? cfg.gline.max_transmitters_per_line : width;
    for (GlockId g = 0; g < cfg.gline.num_glocks; ++g) {
      guarded_units_.push_back(std::make_unique<GuardedGlockUnit>(
          g, cfg.num_cores, group, hierarchical_, cfg.gline.signal_latency,
          cfg.fault, injector_.get(), health_.get(), regs));
    }
  } else if (hierarchical_) {
    // Section V scaling path 2: an arbitrary-depth token tree whose
    // segments never exceed the per-wire transmitter budget.
    for (GlockId g = 0; g < cfg.gline.num_glocks; ++g) {
      hier_units_.push_back(std::make_unique<HierGlockUnit>(
          g, cfg.num_cores, cfg.gline.signal_latency,
          cfg.gline.max_transmitters_per_line, regs));
    }
  } else {
    // Baseline G-line technology supports up to seven tiles per dimension
    // (six transmitters + one receiver per line, Section III-F). Larger
    // meshes require the longer-latency G-line variant (scaling path 1)
    // or the hierarchical network (path 2, gline.hierarchical).
    GLOCKS_CHECK(
        width <= cfg.gline.max_transmitters_per_line + 1 ||
            cfg.gline.signal_latency > 1,
        "mesh width " << width << " exceeds the single-cycle G-line "
                      << "reach; raise gline.signal_latency or set "
                      << "gline.hierarchical");
    for (GlockId g = 0; g < cfg.gline.num_glocks; ++g) {
      units_.push_back(std::make_unique<GlockUnit>(
          g, cfg.num_cores, width, cfg.gline.signal_latency, regs));
    }
  }
  if (!barrier_regs.empty()) {
    for (std::uint32_t b = 0; b < cfg.gline.num_gbarriers; ++b) {
      barriers_.push_back(std::make_unique<GBarrierUnit>(
          b, cfg.num_cores, width, cfg.gline.signal_latency, barrier_regs));
    }
  }
}

void GlineSystem::tick(Cycle now) {
  for (auto& u : units_) u->tick(now);
  for (auto& u : hier_units_) u->tick(now);
  for (auto& u : guarded_units_) u->tick(now);
  for (auto& b : barriers_) b->tick(now);
  // The cores' lock and barrier register writes wake us (thread.hpp
  // awaiters). Guarded units also keep deadlines of their own — frames
  // maturing, watchdogs, noise cycles — so a fault run sleeps to the
  // earliest of those.
  if (!dormant()) return;
  Cycle next = kNoCycle;
  for (const auto& u : guarded_units_) next = std::min(next, u->next_tick());
  if (next == kNoCycle) {
    sleep();
  } else if (next > now + 1) {
    sleep_until(next);
  }
}

bool GlineSystem::dormant() const {
  for (const auto& u : units_) {
    if (!u->dormant()) return false;
  }
  for (const auto& u : hier_units_) {
    if (!u->dormant()) return false;
  }
  for (const auto& b : barriers_) {
    if (!b->dormant()) return false;
  }
  return true;
}

GlineStats GlineSystem::total_stats() const {
  GlineStats total;
  auto fold = [&total](const GlineStats& s) {
    total.signals += s.signals;
    total.local_flags += s.local_flags;
    total.acquires_granted += s.acquires_granted;
    total.releases += s.releases;
    total.secondary_passes += s.secondary_passes;
  };
  for (const auto& u : units_) fold(u->stats());
  for (const auto& u : hier_units_) fold(u->stats());
  for (const auto& u : guarded_units_) fold(u->stats());
  return total;
}

GBarrierStats GlineSystem::total_barrier_stats() const {
  GBarrierStats total;
  for (const auto& b : barriers_) {
    total.episodes += b->stats().episodes;
    total.signals += b->stats().signals;
    total.local_flags += b->stats().local_flags;
  }
  return total;
}

bool GlineSystem::idle() const {
  for (const auto& u : units_) {
    if (!u->idle()) return false;
  }
  for (const auto& u : hier_units_) {
    if (!u->idle()) return false;
  }
  for (const auto& u : guarded_units_) {
    if (!u->idle()) return false;
  }
  for (const auto& b : barriers_) {
    if (!b->idle()) return false;
  }
  return true;
}

fault::FaultStats GlineSystem::finalize_fault_stats() {
  if (!injector_) return fault::FaultStats{};
  injector_->counter(&fault::FaultStats::fallback_acquires) =
      health_->fallback_acquires;
  injector_->finalize();
  return injector_->stats();
}

std::string GlineSystem::debug_dump() const {
  std::ostringstream oss;
  for (const auto& u : guarded_units_) oss << u->debug_dump();
  for (GlockId g = 0; g < units_.size(); ++g) {
    const auto h = units_[g]->holder();
    oss << "glock " << g << " holder="
        << (h ? std::to_string(*h) : std::string("none"))
        << (units_[g]->idle() ? " idle" : " active") << "\n";
  }
  for (GlockId g = 0; g < hier_units_.size(); ++g) {
    const auto h = hier_units_[g]->holder();
    oss << "glock " << g << " holder="
        << (h ? std::to_string(*h) : std::string("none"))
        << (hier_units_[g]->idle() ? " idle" : " active") << "\n";
  }
  return oss.str();
}

CostModel CostModel::for_cores(std::uint32_t c) {
  CostModel m;
  m.cores = c;
  m.glines = c - 1;
  m.secondary_managers =
      static_cast<std::uint32_t>(std::lround(std::sqrt(c)));
  m.local_controllers = c - 1;
  m.fsx_flags = m.secondary_managers;
  m.fx_flags = c;
  return m;
}

std::string CostModel::to_table() const {
  std::ostringstream oss;
  oss << "G-lines                    " << glines << "\n"
      << "Primary Lock Managers      " << primary_managers << "\n"
      << "Secondary Lock Managers    " << secondary_managers << "\n"
      << "Local controllers          " << local_controllers << "\n"
      << "fSx Flags                  " << fsx_flags << "\n"
      << "fx Flags                   " << fx_flags << "\n"
      << "Lock Acquire (worst case)  " << acquire_worst << " cycles\n"
      << "Lock Acquire (best case)   " << acquire_best << " cycles\n"
      << "Lock Release               " << release << " cycles\n";
  return oss.str();
}

// ---- checkpoint ----

void GlineSystem::save(ckpt::ArchiveWriter& a) const {
  a.b(hierarchical_);
  a.b(guarded());
  a.u32(num_glocks());
  if (guarded()) {
    for (const auto& u : guarded_units_) u->save(a);
  } else if (hierarchical_) {
    for (const auto& u : hier_units_) u->save(a);
  } else {
    for (const auto& u : units_) u->save(a);
  }
  a.u32(num_gbarriers());
  for (const auto& b : barriers_) b->save(a);
  if (guarded()) {
    injector_->save(a);
    fault::save_glock_health(a, *health_);
  }
}

void GlineSystem::load(ckpt::ArchiveReader& a) {
  GLOCKS_CHECK(a.b() == hierarchical_,
               "checkpoint G-line topology flavour mismatch");
  GLOCKS_CHECK(a.b() == guarded(),
               "checkpoint G-line transport flavour mismatch");
  GLOCKS_CHECK(a.u32() == num_glocks(),
               "checkpoint GLock count mismatch");
  if (guarded()) {
    for (const auto& u : guarded_units_) u->load(a);
  } else if (hierarchical_) {
    for (const auto& u : hier_units_) u->load(a);
  } else {
    for (const auto& u : units_) u->load(a);
  }
  GLOCKS_CHECK(a.u32() == num_gbarriers(),
               "checkpoint GBarrier count mismatch");
  for (const auto& b : barriers_) b->load(a);
  if (guarded()) {
    injector_->load(a);
    fault::load_glock_health(a, *health_);
  }
}

}  // namespace glocks::gline
