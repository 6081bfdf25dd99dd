// Simulation kernel: one shared clock, components ticked in registration
// order, with an optional event-driven scheduler that skips dead cycles.
//
// All components share one clock. Each cycle the engine ticks the
// registered components in registration order, which is fixed by the
// system builder, making runs deterministic.
//
// Signal timing convention used across modules: state written during
// cycle N becomes visible to consumers at cycle N+1. Modules realize this
// either by double-buffering (G-lines) or by stamping messages with a
// ready_cycle in the future (NoC, caches).
//
// Dormancy contract (EngineMode::kEventDriven, the default): a component
// may call sleep()/sleep_until() from inside its own tick() to leave the
// active set; it is ticked again only once wake()/wake_at() is called on
// it (by itself, by a producer that handed it work, or by a wake it
// scheduled earlier). The contract a sleeping component must satisfy is
// that ticking it while dormant would have been a no-op: extra ticks are
// always harmless (every tick body is written to do nothing when no work
// is ready), but a *missed* wake stalls the machine. Producers therefore
// wake liberally; the engine dedupes nothing and treats a wake for an
// already-active component as a no-op. When the active set is empty the
// clock jumps straight to the earliest scheduled wake — never past it —
// so the cycle at which any component next observes state is exactly the
// cycle it would have observed it under the serial tick-everything loop.
// See docs/simulation_model.md, "Event-driven kernel & dormancy
// contract".

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "common/word_bitset.hpp"

namespace glocks::ckpt {
class ArchiveWriter;
class ArchiveReader;
}  // namespace glocks::ckpt

namespace glocks::sim {

class Engine;

/// Kernel self-measurement counters (the `--perf` / bench layer reads
/// these; they never influence simulation results).
struct EnginePerf {
  std::uint64_t ticks_executed = 0;  ///< component tick() calls made
  std::uint64_t ticks_skipped = 0;   ///< dormant slots during stepped cycles
  std::uint64_t cycles_stepped = 0;  ///< cycles advanced by scanning
  std::uint64_t cycles_skipped = 0;  ///< cycles advanced by clock jumps
  std::uint64_t clock_jumps = 0;     ///< number of fast-forward events
  std::uint64_t wakes_scheduled = 0; ///< wake()/wake_at() calls accepted
};

/// Per-registered-component slice of EnginePerf, labelled with the name
/// passed to Engine::add.
struct SlotPerf {
  std::string name;
  std::uint64_t ticks = 0;
  std::uint64_t wakes = 0;
};

/// Anything that does work once per simulated cycle.
class Component {
 public:
  virtual ~Component() = default;
  /// Performs this component's work for cycle `now`.
  virtual void tick(Cycle now) = 0;

  /// Ensures this component is ticked at cycle `at` (>= the engine clock;
  /// scheduling a wake in the past is a checked error). Calling it on a
  /// component that already ticked this cycle arms the wake for the next
  /// cycle — matching serial semantics, where state written during cycle
  /// N is observed at N+1. No-op when unregistered or in kSerial mode
  /// (everything is always active there).
  void wake_at(Cycle at);
  /// Ensures this component is ticked no later than the next cycle it
  /// could observe new state: immediately if it has not ticked in the
  /// current cycle yet, else next cycle. Safe to call from components or
  /// callbacks that do not track the clock.
  void wake();

 protected:
  /// True once Engine::add has claimed this component.
  bool registered() const { return engine_ != nullptr; }
  /// The cycle at which this component would next observe new state if
  /// woken right now: the engine's current cycle while this slot's tick
  /// has not run yet this cycle, else the next cycle. Mirrors the wake
  /// bump rule (the serial N -> N+1 visibility convention), and is
  /// valid in both engine modes — step() maintains the scan cursor
  /// either way. The mesh uses this to anchor express-route timing to
  /// the exact cycle a hop-by-hop packet would have been injected.
  Cycle next_tick_cycle() const;
  /// Leaves the active set; only call from inside this component's own
  /// tick(), and only when every future cycle with work for it is covered
  /// by a wake (already scheduled, or guaranteed to be delivered by a
  /// producer). No-op when unregistered or in kSerial mode.
  void sleep();
  /// sleep(), plus a self-wake at cycle `at`.
  void sleep_until(Cycle at);

 private:
  friend class Engine;
  Engine* engine_ = nullptr;  ///< set by Engine::add; null = always active
  std::uint32_t slot_ = 0;
};

/// The simulation clock and tick loop.
class Engine {
 public:
  explicit Engine(EngineMode mode = EngineMode::kEventDriven)
      : mode_(mode) {}

  /// Registers a component; non-owning, the caller keeps it alive for the
  /// duration of the run. Tick order == registration order. The optional
  /// name labels this slot in the perf counters.
  void add(Component& c, std::string_view name = {});

  Cycle now() const { return now_; }
  EngineMode mode() const { return mode_; }

  /// Advances exactly one cycle.
  void step();

  /// Runs until `done()` returns true (checked between cycles) or
  /// `max_cycles` elapse. Returns the final cycle count. Throws SimError
  /// if the cycle limit is hit, since that always signals a deadlock or a
  /// runaway workload; the error carries the hang reporter's dump when
  /// one is installed. `phase` names the run phase in that diagnostic
  /// (nullptr keeps the default "simulation exceeded ..." message).
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles,
                  const char* phase = nullptr);

  /// run_until, but additionally returns (without error) as soon as the
  /// clock reaches `pause_at` — the checkpoint layer's hook. Pausing is
  /// observationally pure: the check happens between cycles and a clock
  /// jump that would overshoot the pause point is split at it, so the
  /// serialized state is exactly what an uninterrupted run holds there.
  Cycle run_until_or_pause(const std::function<bool()>& done,
                           Cycle max_cycles, Cycle pause_at,
                           const char* phase = nullptr);

  /// Installs a callback that renders the machine state (per-core waits,
  /// lock registers, controller flags, token positions) into the
  /// SimError thrown on a cycle-limit hit, turning a bare abort into a
  /// debuggable deadlock report.
  void set_hang_reporter(std::function<std::string()> reporter) {
    hang_reporter_ = std::move(reporter);
  }

  const EnginePerf& perf() const { return perf_; }
  const std::vector<SlotPerf>& slot_perf() const { return slot_perf_; }

  /// Serializes the kernel state — clock, per-slot active bits and
  /// last-tick/last-wake cycles, the pending-wake queue (canonically
  /// sorted), and the perf counters — as one archive-section payload.
  /// Components themselves are not owned here; they save separately.
  void save(ckpt::ArchiveWriter& a) const;
  /// Inverse of save(); the same components must already be registered
  /// (load restores scheduling state, not the component roster).
  void load(ckpt::ArchiveReader& a);

 private:
  friend class Component;

  struct Slot {
    Component* c;
    Cycle last_tick = kNoCycle;  ///< cycle of this slot's latest tick()
    Cycle last_wake = kNoCycle;  ///< latest wake cycle accepted for it
  };
  /// A pending wake: activate slot `slot` once the clock reaches `at`.
  /// Stored as a min-heap on (at, slot); duplicates are allowed and
  /// popping an entry for an already-active slot is a no-op.
  struct Wake {
    Cycle at;
    std::uint32_t slot;
    bool operator>(const Wake& o) const {
      return at != o.at ? at > o.at : slot > o.slot;
    }
  };

  void schedule(std::uint32_t slot, Cycle at);
  void push_wake(std::uint32_t slot, Cycle at);
  void activate_due();
  /// Runs slot `slot`'s tick for the current cycle with the scan cursor
  /// on it.
  void tick_slot(std::size_t slot);
  Cycle run_loop(const std::function<bool()>& done, Cycle max_cycles,
                 Cycle pause_at, const char* phase);
  /// The dormant-component appendix of the hang diagnostic: every
  /// inactive slot with its last tick, last accepted wake, and earliest
  /// still-pending wake — so a machine that hangs after a restore (or a
  /// missed-wake bug) names the component that went to sleep forever.
  std::string dormancy_report() const;
  [[noreturn]] void throw_hang(Cycle max_cycles, const char* phase) const;

  EngineMode mode_;
  std::vector<Slot> slots_;
  /// Pending wakes; min-heap via std::push_heap/pop_heap.
  std::vector<Wake> wakes_;
  /// The active set, one bit per slot and the only record of which
  /// slots are awake: save() writes it, load() rebuilds it, the dormancy
  /// report reads it. Event mode's step() visits its set bits in slot
  /// order.
  common::WordBitset active_;
  /// Scan cursor: while step() is walking the slots, wakes for the
  /// current cycle targeting a slot at or before the cursor have missed
  /// their tick and are bumped to the next cycle (the serial N -> N+1
  /// visibility rule). A wake above the cursor sets its bit, which the
  /// bitset scan picks up in the same pass.
  std::size_t scan_pos_ = 0;
  bool in_scan_ = false;
  std::function<std::string()> hang_reporter_;
  Cycle now_ = 0;
  EnginePerf perf_;
  std::vector<SlotPerf> slot_perf_;
};

}  // namespace glocks::sim
