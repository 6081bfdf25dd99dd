#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "ckpt/archive.hpp"
#include "common/check.hpp"

namespace glocks::sim {

void Component::wake_at(Cycle at) {
  if (engine_ != nullptr) engine_->schedule(slot_, at);
}

void Component::wake() {
  if (engine_ != nullptr) engine_->schedule(slot_, engine_->now());
}

Cycle Component::next_tick_cycle() const {
  GLOCKS_CHECK(engine_ != nullptr,
               "next_tick_cycle() on an unregistered component");
  const Engine& e = *engine_;
  return (e.in_scan_ && slot_ <= e.scan_pos_) ? e.now_ + 1 : e.now_;
}

void Component::sleep() {
  if (engine_ == nullptr || engine_->mode_ != EngineMode::kEventDriven) {
    return;
  }
  engine_->active_.reset(slot_);
}

void Component::sleep_until(Cycle at) {
  sleep();
  wake_at(at);
}

void Engine::add(Component& c, std::string_view name) {
  GLOCKS_CHECK(c.engine_ == nullptr || c.engine_ == this,
               "component registered with two engines");
  c.engine_ = this;
  c.slot_ = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{&c});
  active_.resize(slots_.size());
  active_.set(c.slot_);
  SlotPerf sp;
  sp.name = name.empty() ? ("slot" + std::to_string(c.slot_))
                         : std::string(name);
  slot_perf_.push_back(std::move(sp));
}

void Engine::push_wake(std::uint32_t slot, Cycle at) {
  wakes_.push_back(Wake{at, slot});
  std::push_heap(wakes_.begin(), wakes_.end(), std::greater<>{});
}

void Engine::schedule(std::uint32_t slot, Cycle at) {
  if (mode_ != EngineMode::kEventDriven) return;
  GLOCKS_CHECK(at >= now_, "wake scheduled in the past: cycle "
                               << at << " < now " << now_ << " ("
                               << slot_perf_[slot].name << ")");
  ++perf_.wakes_scheduled;
  ++slot_perf_[slot].wakes;
  slots_[slot].last_wake = at;
  if (at == now_) {
    if (in_scan_ && slot <= scan_pos_) {
      // This slot's tick for the current cycle already ran (or is the
      // caller itself): the earliest it can observe the new state is next
      // cycle — exactly when it would have seen it under the serial loop.
      push_wake(slot, now_ + 1);
    } else {
      active_.set(slot);
    }
    return;
  }
  push_wake(slot, at);
}

void Engine::activate_due() {
  while (!wakes_.empty() && wakes_.front().at <= now_) {
    const std::uint32_t slot = wakes_.front().slot;
    std::pop_heap(wakes_.begin(), wakes_.end(), std::greater<>{});
    wakes_.pop_back();
    active_.set(slot);
  }
}

void Engine::tick_slot(std::size_t slot) {
  scan_pos_ = slot;
  slots_[slot].c->tick(now_);
  slots_[slot].last_tick = now_;
  ++slot_perf_[slot].ticks;
}

void Engine::step() {
  std::uint64_t executed = 0;
  in_scan_ = true;
  if (mode_ == EngineMode::kEventDriven) {
    activate_due();
    // Only awake slots cost anything. The scan re-reads the current
    // word after each tick, so a slot woken mid-scan above the cursor
    // ticks this cycle — as in the serial loop below.
    active_.for_each([this, &executed](std::size_t slot) {
      tick_slot(slot);
      ++executed;
    });
  } else {
    // The serial reference: every slot, every cycle.
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) tick_slot(slot);
    executed = slots_.size();
  }
  in_scan_ = false;
  perf_.ticks_executed += executed;
  perf_.ticks_skipped += slots_.size() - executed;
  ++perf_.cycles_stepped;
  ++now_;
}

Cycle Engine::run_until(const std::function<bool()>& done, Cycle max_cycles,
                        const char* phase) {
  return run_loop(done, max_cycles, kNoCycle, phase);
}

Cycle Engine::run_until_or_pause(const std::function<bool()>& done,
                                 Cycle max_cycles, Cycle pause_at,
                                 const char* phase) {
  return run_loop(done, max_cycles, pause_at, phase);
}

Cycle Engine::run_loop(const std::function<bool()>& done, Cycle max_cycles,
                       Cycle pause_at, const char* phase) {
  while (!done()) {
    if (now_ >= pause_at) return now_;
    if (now_ >= max_cycles) [[unlikely]] {
      throw_hang(max_cycles, phase);
    }
    if (mode_ == EngineMode::kEventDriven && active_.none()) {
      // Everyone is dormant: jump straight to the earliest wake (never
      // past it), clamped to the cycle limit so an empty wake queue still
      // lands on the ordinary hang path above, and to the pause point so
      // a checkpoint lands on its exact cycle (the resumed jump re-aims
      // at the same wake — a pure clock move either way).
      Cycle target = wakes_.empty()
                         ? max_cycles
                         : std::min(wakes_.front().at, max_cycles);
      target = std::min(target, pause_at);
      if (target > now_) {
        ++perf_.clock_jumps;
        perf_.cycles_skipped += target - now_;
        now_ = target;
        continue;  // a pure clock move changes no state; re-check limits
      }
    }
    step();
  }
  return now_;
}

std::string Engine::dormancy_report() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (active_.test(i)) continue;
    const Slot& s = slots_[i];
    oss << "  " << slot_perf_[i].name << ": dormant";
    if (s.last_tick == kNoCycle) {
      oss << ", never ticked";
    } else {
      oss << ", last tick @" << s.last_tick;
    }
    if (s.last_wake == kNoCycle) {
      oss << ", no wake ever scheduled";
    } else {
      oss << ", last wake scheduled for @" << s.last_wake;
    }
    Cycle pending = kNoCycle;
    for (const Wake& w : wakes_) {
      if (w.slot == i) pending = std::min(pending, w.at);
    }
    if (pending == kNoCycle) {
      oss << ", no pending wake";
    } else {
      oss << ", next pending wake @" << pending;
    }
    oss << "\n";
  }
  return oss.str();
}

void Engine::throw_hang(Cycle max_cycles, const char* phase) const {
  std::ostringstream oss;
  if (phase == nullptr) {
    oss << "simulation exceeded " << max_cycles
        << " cycles — deadlock or runaway workload";
  } else {
    oss << phase << " exceeded its budget of " << max_cycles
        << " cycles — in-flight state failed to quiesce";
  }
  if (hang_reporter_) {
    oss << "\n--- hang diagnostic (cycle " << now_ << ") ---\n"
        << hang_reporter_();
  }
  if (mode_ == EngineMode::kEventDriven) {
    // A hang in event mode is often a missed wake: some component slept
    // and nothing ever re-armed it. List every dormant slot with its
    // wall-state so a post-restore (or missed-wake) hang names the
    // culprit instead of only showing the live components.
    const std::string dormant = dormancy_report();
    if (!dormant.empty()) {
      oss << "dormant components (last-wake cycles):\n" << dormant;
    }
  }
  throw SimError(oss.str());
}

void Engine::save(ckpt::ArchiveWriter& a) const {
  GLOCKS_CHECK(!in_scan_, "engine save mid-cycle (inside a scan)");
  a.u64(now_);
  a.u8(static_cast<std::uint8_t>(mode_));
  a.u64(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    a.b(active_.test(i));
    a.u64(slots_[i].last_tick);
    a.u64(slots_[i].last_wake);
    a.u64(slot_perf_[i].ticks);
    a.u64(slot_perf_[i].wakes);
  }
  // Heap array order depends on push/pop history; serialize the
  // canonical sorted form (which is itself a valid min-heap layout).
  std::vector<Wake> sorted = wakes_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Wake& x, const Wake& y) {
              return x.at != y.at ? x.at < y.at : x.slot < y.slot;
            });
  a.u64(sorted.size());
  for (const Wake& w : sorted) {
    a.u64(w.at);
    a.u32(w.slot);
  }
  a.u64(perf_.ticks_executed);
  // clock_jumps, ticks_skipped, cycles_stepped and cycles_skipped are
  // deliberately not serialized: clock_jumps depends on pause history
  // (pausing for a checkpoint splits one idle jump into two) while all
  // machine state does not, and the other three are kernel
  // self-measurement kept out with it. The restore verifier
  // byte-compares a replayed machine's archive against this one, so only
  // pause-invariant fields may land here; ticks_executed and
  // wakes_scheduled count real machine events and qualify.
  a.u64(perf_.wakes_scheduled);
}

void Engine::load(ckpt::ArchiveReader& a) {
  now_ = a.u64();
  const auto mode = static_cast<EngineMode>(a.u8());
  GLOCKS_CHECK(mode == mode_,
               "checkpoint engine mode does not match this engine");
  const std::uint64_t n = a.u64();
  GLOCKS_CHECK(n == slots_.size(),
               "checkpoint slot count " << n << " != registered "
                                        << slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    active_.assign(i, a.b());
    slots_[i].last_tick = a.u64();
    slots_[i].last_wake = a.u64();
    slot_perf_[i].ticks = a.u64();
    slot_perf_[i].wakes = a.u64();
  }
  wakes_.clear();
  const std::uint64_t nw = a.u64();
  wakes_.reserve(nw);
  for (std::uint64_t i = 0; i < nw; ++i) {
    const Cycle at = a.u64();
    const std::uint32_t slot = a.u32();
    GLOCKS_CHECK(slot < slots_.size(), "wake for out-of-range slot");
    // Sorted ascending on (at, slot) is a valid min-heap layout as-is.
    wakes_.push_back(Wake{at, slot});
  }
  perf_.ticks_executed = a.u64();
  // clock_jumps / ticks_skipped / cycles_stepped / cycles_skipped keep
  // their current values (see save()).
  perf_.wakes_scheduled = a.u64();
}

}  // namespace glocks::sim
