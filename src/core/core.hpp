// In-order core model: hosts one simulated thread and advances it.
#pragma once

#include <functional>
#include <memory>

#include "common/types.hpp"
#include "core/task.hpp"
#include "core/thread.hpp"
#include "sim/engine.hpp"

namespace glocks::core {

/// One processing core running exactly one simulated thread (the paper's
/// experiments bind one thread per core). The core charges each live cycle
/// to the thread's current activity category, drives compute delays, and
/// resumes the coroutine when its pending operation completes.
class Core final : public sim::Component {
 public:
  Core(CoreId id, std::uint32_t num_glocks, std::uint32_t num_gbarriers = 1);

  CoreId id() const { return id_; }

  /// Binds the thread program. `make_body` is called with the ThreadApi so
  /// the coroutine can capture a stable reference.
  ///
  /// IMPORTANT (CppCoreGuidelines CP.51): `make_body` must be an ordinary
  /// function that *returns* a coroutine (e.g. calls a member/free
  /// coroutine function), never itself a capturing coroutine lambda — a
  /// lambda coroutine's frame references the closure object, which dies
  /// when this call returns.
  void bind(std::uint32_t thread_id, std::uint32_t num_threads,
            mem::L1Cache& l1,
            const std::function<Task<void>(ThreadApi&)>& make_body);

  bool bound() const { return ctx_ != nullptr; }
  bool finished() const { return ctx_ == nullptr || ctx_->finished; }
  /// True while the thread's spin_until is parked on its L1 line (the
  /// wait state stays kMem, as for a load in flight).
  bool parked() const { return parked_; }
  const ThreadContext& context() const { return *ctx_; }
  ThreadContext& context() { return *ctx_; }
  LockRegisters& lock_registers() { return lock_regs_; }
  BarrierRegisters& barrier_registers() { return barrier_regs_; }
  mem::SbStation& sb_station() { return sb_station_; }
  mem::QolbStation& qolb_station() { return qolb_station_; }

  /// Components the thread's awaiters must wake when they hand off work
  /// (the G-line network consuming lock/barrier registers, the census
  /// sampler). Copied into the ThreadContext at bind time.
  void set_wake_targets(sim::Component* gline_system, sim::Component* census);

  /// Called exactly once, from inside tick(), when the bound thread's
  /// coroutine returns; the harness counts these so run() terminates on a
  /// counter instead of scanning every core each cycle.
  void set_finish_listener(std::function<void()> f) {
    on_finish_ = std::move(f);
  }

  void tick(Cycle now) override;

  /// Checkpoint: architectural lock/barrier registers, SB/QOLB station
  /// registers, dormancy bookkeeping, and the thread's serializable state.
  /// The coroutine resume point is host-side state and is re-established
  /// by deterministic replay (docs/checkpoint_format.md).
  void save(ckpt::ArchiveWriter& a) const;

 private:
  void resume(Cycle now);
  /// A spin load retired with a value that fails the exit test: park on
  /// the L1 line when the L1 allows it, else issue the next load.
  void respin();
  /// The L1 ended the park: charge the `elided` iterations' micro-ops
  /// and cycles, and account the load now in flight (issued at `issued`)
  /// as an ordinary memory wait.
  void unpark(std::uint64_t elided, Cycle issued, Cycle period);
  /// Leaves the active set, recording what each skipped cycle would have
  /// been charged under the serial loop so the catch-up in tick() can
  /// reproduce the per-cycle accounting exactly.
  void go_dormant(Cycle now);

  CoreId id_;
  LockRegisters lock_regs_;
  BarrierRegisters barrier_regs_;
  mem::SbStation sb_station_;
  mem::QolbStation qolb_station_;
  std::unique_ptr<ThreadContext> ctx_;
  std::unique_ptr<ThreadApi> api_;
  Task<void> body_;
  bool started_ = false;

  sim::Component* gline_system_ = nullptr;
  sim::Component* census_ = nullptr;
  std::function<void()> on_finish_;
  bool finish_reported_ = false;

  // Dormancy catch-up state (meaningful only while dormant_ is set).
  bool dormant_ = false;
  bool dormant_spin_ = false;          ///< skipped cycles spin a register
  std::size_t dormant_charge_ = 0;     ///< Category index charged per cycle
  ThreadContext::Wait dormant_wait_ = ThreadContext::Wait::kReady;
  Cycle last_tick_ = 0;                ///< cycle of the tick that slept
  bool parked_ = false;                ///< spin_until parked on the L1
};

}  // namespace glocks::core
