// Simulator self-measurement: wall-clock timing plus the kernel's
// tick/skip/wake counters, rolled up into the `--perf` summary and the
// JSON perfbench reads. Strictly an observer — nothing here feeds
// back into simulation state, so enabling it cannot change results.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace glocks::perf {

/// Monotonic stopwatch (std::chrono::steady_clock), started on
/// construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Message hot-path counters: the coherence-message pool and the mesh's
/// router worklist. Like the engine block, strictly observational — the
/// counters never feed back into simulation state.
struct MsgPathPerf {
  std::uint64_t pool_heap_allocs = 0;  ///< slab mallocs (warmup only)
  std::uint64_t pool_heap_bytes = 0;   ///< bytes of slab backing store
  std::uint64_t pool_acquires = 0;     ///< messages handed out in total
  std::uint64_t pool_reuses = 0;       ///< acquires served from the free list
  std::uint64_t pool_high_water = 0;   ///< peak simultaneously-live messages
  std::uint64_t router_visits = 0;  ///< router ticks the mesh performed
  std::uint64_t router_busy_visits = 0;  ///< ... that found a ready head
};

/// Spin-parking counters, summed over every L1 (see mem::SpinStats):
/// software-lock spinners parked on their resident line, the spin
/// iterations replayed in bulk instead of stepped, and what ended each
/// park.
struct SpinPerf {
  std::uint64_t parks = 0;
  std::uint64_t elided = 0;
  std::uint64_t unparks_inv = 0;
  std::uint64_t unparks_fwd = 0;
};

/// One run's (or an aggregate of runs') simulator-throughput measurement.
struct SimPerf {
  double wall_seconds = 0.0;
  std::uint64_t sim_cycles = 0;  ///< final engine clock, summed over runs
  std::uint64_t runs = 0;
  sim::EnginePerf engine;
  MsgPathPerf msg;
  SpinPerf spin;
  /// Per-component tick/wake counts, merged by slot name across runs.
  std::vector<sim::SlotPerf> slots;

  /// Simulated megacycles per wall-clock second (0 when unmeasured).
  double msim_cycles_per_sec() const;

  /// Folds another measurement in (counters sum; slots merge by name).
  void add(const SimPerf& other);

  /// Four-line human summary for `--perf`.
  std::string summary() const;
  /// JSON object (the per-run `perf` payload perfbench reads).
  void write_json(std::ostream& out) const;
};

/// Snapshots an engine's counters after a run.
SimPerf capture(const sim::Engine& engine, double wall_seconds);

}  // namespace glocks::perf
