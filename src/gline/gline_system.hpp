// The chip's GLocks hardware: one GlockUnit per provisioned lock, all on
// one shared TokenTree, plus the analytic cost model of paper Table I.
//
// The tree is the paper's flat layout (TokenTree::flat) unless the mesh is
// wider than the single-cycle G-line reach at latency 1, or
// gline.hierarchical asks for it: then it is the Section V reach-bounded
// tree (TokenTree::reach_bounded). With fault injection enabled
// (cfg.fault.enabled) every lock unit is built as a GuardedGlockUnit on
// reliable framed channels instead, over a reach-bounded tree that
// co-locates each node's middle child (the mesh width is the reach when
// the flat layout fits), and the system owns the run's FaultInjector and
// the GlockHealth board that the lock factory consults for fallback
// demotion. The barrier always spans the flat tree and is not
// fault-modelled: the fault campaign targets the lock protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/thread.hpp"
#include "fault/fault.hpp"
#include "gline/gbarrier_unit.hpp"
#include "gline/glock_unit.hpp"
#include "gline/guarded_glock_unit.hpp"
#include "sim/engine.hpp"

namespace glocks::gline {

class GlineSystem final : public sim::Component {
 public:
  /// `regs[c]` must expose at least cfg.gline.num_glocks register pairs;
  /// `barrier_regs` likewise for cfg.gline.num_gbarriers (may be empty to
  /// build a lock-only network).
  GlineSystem(const CmpConfig& cfg,
              std::vector<glocks::core::LockRegisters*> regs,
              std::vector<glocks::core::BarrierRegisters*> barrier_regs = {});

  std::uint32_t num_glocks() const {
    return static_cast<std::uint32_t>(guarded() ? guarded_units_.size()
                                                : units_.size());
  }
  bool hierarchical() const { return hierarchical_; }
  /// True when fault injection rebuilt the lock units on the guarded
  /// transport.
  bool guarded() const { return injector_ != nullptr; }
  /// Clean-unit accessors (only valid when !guarded()).
  GlockUnit& unit(GlockId g) { return *units_[g]; }
  const GlockUnit& unit(GlockId g) const { return *units_[g]; }
  GuardedGlockUnit& guarded_unit(GlockId g) { return *guarded_units_[g]; }

  std::uint32_t num_gbarriers() const {
    return static_cast<std::uint32_t>(barriers_.size());
  }
  GBarrierUnit& barrier_unit(std::uint32_t b) { return *barriers_[b]; }

  void tick(Cycle now) override;

  GlineStats total_stats() const;
  GBarrierStats total_barrier_stats() const;
  bool idle() const;

  /// True when every clean lock unit and barrier is dormant (a tick
  /// would be a no-op). Guarded units are not consulted: tick() sleeps
  /// to their next_tick() deadline instead.
  bool dormant() const;

  /// Health board consulted by the lock factory; null when faults are
  /// disabled.
  fault::GlockHealth* health() { return health_.get(); }
  fault::FaultInjector* injector() { return injector_.get(); }

  /// Closes the fault ledger and returns the reconciled statistics
  /// (injected == detected + tolerated). Disabled runs return a
  /// default-constructed (all-zero, enabled=false) block.
  fault::FaultStats finalize_fault_stats();

  /// Controller/flag/token dump of every lock unit, for the hang
  /// diagnostic.
  std::string debug_dump() const;

  /// Checkpoint: every lock unit and barrier, plus (in fault mode) the
  /// injector ledger and the health board. The unit flavour and counts
  /// are construction-time state, written so a byte comparison names a
  /// topology mismatch.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  bool hierarchical_ = false;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::GlockHealth> health_;
  std::vector<std::unique_ptr<GlockUnit>> units_;
  std::vector<std::unique_ptr<GuardedGlockUnit>> guarded_units_;
  std::vector<std::unique_ptr<GBarrierUnit>> barriers_;
};

/// Paper Table I: analytic hardware/software cost of GLocks on a 2D-mesh
/// CMP layout with C cores (per provisioned lock where applicable).
struct CostModel {
  std::uint32_t cores = 0;
  std::uint32_t glines = 0;               ///< C - 1
  std::uint32_t primary_managers = 1;
  std::uint32_t secondary_managers = 0;   ///< sqrt(C)
  std::uint32_t local_controllers = 0;    ///< C - 1
  std::uint32_t fsx_flags = 0;            ///< sqrt(C)
  std::uint32_t fx_flags = 0;             ///< C
  Cycle acquire_worst = 4;
  Cycle acquire_best = 2;
  Cycle release = 1;

  static CostModel for_cores(std::uint32_t c);
  std::string to_table() const;
};

}  // namespace glocks::gline
