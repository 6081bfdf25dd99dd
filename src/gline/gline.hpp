// G-line primitives: single-bit global wires with one-cycle-per-dimension
// propagation (Section II / III-A of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"

namespace glocks::gline {

/// A framed symbol in flight on a wire (guarded transport only — see
/// framed_link.hpp). Baseline pulses and frames never share a wire.
struct Frame {
  Cycle at = 0;       ///< maturity cycle at the receiver
  Cycle sent = 0;     ///< cycle the transmission began
  std::uint8_t payload = 0;
  bool garbled = false;
  std::int32_t garble_event = -1;  ///< ledger id of the injected garble
  std::int32_t delay_event = -1;   ///< ledger id of the injected delay
};

/// One directed channel of a G-line. The physical wire is bidirectional
/// (Ito et al. multi-drop lines); the protocol never drives both directions
/// in the same cycle, so modelling each direction separately is exact.
///
/// A pulse sent during cycle t is observable at cycle t + latency. The
/// receiver interprets the pulse as REQ or REL from its own flag state
/// (paper Section III-D), so the wire itself carries no payload.
class Wire {
 public:
  /// `is_local` marks the co-located internal flag (same-tile manager):
  /// it has the same one-cycle observation timing as a G-line (paper
  /// Figure 4 stamps flag writes and signals with the same cycle labels)
  /// but is free wiring — excluded from the G-line count and charged as a
  /// flag write, not a wire transmission, by the energy model.
  explicit Wire(Cycle latency, bool is_local = false)
      : latency_(latency), is_local_(is_local) {}

  void pulse(Cycle now) {
    // Protocol invariant (and precondition of the one-pulse-per-poll
    // receiver below): a wire is driven at most once per cycle. Each
    // controller state machine sends at most one signal per tick, so two
    // same-cycle arrivals can only mean a protocol bug — or an injected
    // spurious pulse that would otherwise be silently masked. With a
    // constant latency the arrival deque is non-decreasing, so a
    // same-cycle double drive is exactly a repeated back() entry.
    GLOCKS_CHECK(arrivals_.empty() || arrivals_.back() != now + latency_,
                 "G-line driven twice in cycle " << now);
    ++pulses_sent_;
    arrivals_.push_back(now + latency_);
  }

  /// Consumes one matured pulse, if any.
  bool poll(Cycle now) {
    if (arrivals_.empty() || arrivals_.front() > now) return false;
    arrivals_.pop_front();
    return true;
  }

  /// Puts the wire under the fault injector's jurisdiction (guarded
  /// transport). Local flags stay out: they are latches inside a manager
  /// tile, not chip-spanning wires, so the fault model exempts them.
  void attach_fault(fault::FaultInjector* injector) {
    if (is_local_ || injector == nullptr) return;
    injector_ = injector;
    fault_id_ = injector->register_wire();
  }

  /// Starts a framed transmission of `duration` cycles that the receiver
  /// can decode at now + latency + duration (+ any injected delay). The
  /// returned fate tells the ARQ sender whether the frame was lost and
  /// which ledger event to pin on its watchdog.
  fault::FrameFate send_frame(Cycle now, std::uint8_t payload,
                              std::uint32_t pulses, Cycle duration) {
    GLOCKS_CHECK(frames_.empty() || frames_.back().sent != now,
                 "G-line driven twice in cycle " << now);
    pulses_sent_ += pulses;
    fault::FrameFate fate;
    if (injector_ != nullptr) fate = injector_->judge_frame(fault_id_, now);
    if (fate.lost) return fate;
    frames_.push_back(Frame{now + latency_ + duration + fate.extra_delay,
                            now, payload, fate.garbled, fate.garble_event,
                            fate.delay_event});
    return fate;
  }

  /// Delivers one matured frame per cycle. Injected delays can reorder
  /// maturities, so this scans for the earliest-sent matured frame rather
  /// than only probing the front. A spurious noise burst preempts the
  /// cycle: it surfaces as a garbled frame and any real frame waits one
  /// more cycle (the burst corrupts the sampling window).
  std::optional<Frame> poll_frame(Cycle now) {
    if (injector_ != nullptr) {
      if (const auto ev = injector_->noise_event_at(fault_id_, now);
          ev >= 0) {
        Frame noise;
        noise.at = now;
        noise.sent = now;
        noise.garbled = true;
        noise.garble_event = ev;
        return noise;
      }
    }
    for (auto it = frames_.begin(); it != frames_.end(); ++it) {
      if (it->at <= now) {
        Frame f = *it;
        frames_.erase(it);
        return f;
      }
    }
    return std::nullopt;
  }

  /// Checkpoint: in-flight pulses/frames and the pulse counter. Latency,
  /// locality and fault wiring are construction-time state.
  void save(ckpt::ArchiveWriter& a) const {
    a.u32(static_cast<std::uint32_t>(arrivals_.size()));
    for (Cycle c : arrivals_) a.u64(c);
    a.u32(static_cast<std::uint32_t>(frames_.size()));
    for (const Frame& f : frames_) {
      a.u64(f.at);
      a.u64(f.sent);
      a.u8(f.payload);
      a.b(f.garbled);
      a.i64(f.garble_event);
      a.i64(f.delay_event);
    }
    a.u64(pulses_sent_);
  }
  void load(ckpt::ArchiveReader& a) {
    arrivals_.clear();
    for (std::uint32_t n = a.u32(); n > 0; --n) arrivals_.push_back(a.u64());
    frames_.clear();
    for (std::uint32_t n = a.u32(); n > 0; --n) {
      Frame f;
      f.at = a.u64();
      f.sent = a.u64();
      f.payload = a.u8();
      f.garbled = a.b();
      f.garble_event = static_cast<std::int32_t>(a.i64());
      f.delay_event = static_cast<std::int32_t>(a.i64());
      frames_.push_back(f);
    }
    pulses_sent_ = a.u64();
  }

  /// Maturity cycle of the earliest-maturing frame in flight, or
  /// kNoCycle when none is.
  Cycle next_frame_at() const {
    Cycle at = kNoCycle;
    for (const Frame& f : frames_) at = std::min(at, f.at);
    return at;
  }

  bool is_gline() const { return !is_local_; }
  std::uint64_t pulses_sent() const { return pulses_sent_; }
  bool idle() const { return arrivals_.empty() && frames_.empty(); }
  /// Valid only after attach_fault on a non-local wire.
  std::uint32_t fault_id() const { return fault_id_; }
  bool fault_attached() const { return injector_ != nullptr; }

 private:
  Cycle latency_;
  bool is_local_;
  std::deque<Cycle> arrivals_;
  std::deque<Frame> frames_;
  std::uint64_t pulses_sent_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  std::uint32_t fault_id_ = 0;
};

/// Counters for the energy model and for protocol tests.
struct GlineStats {
  std::uint64_t signals = 0;      ///< pulses on real G-lines
  std::uint64_t local_flags = 0;  ///< co-located flag writes
  std::uint64_t acquires_granted = 0;
  std::uint64_t releases = 0;
  std::uint64_t secondary_passes = 0;  ///< completed row scheduling passes
};

/// Checkpoint codec for the counters.
inline void save_gline_stats(ckpt::ArchiveWriter& a, const GlineStats& s) {
  a.u64(s.signals);
  a.u64(s.local_flags);
  a.u64(s.acquires_granted);
  a.u64(s.releases);
  a.u64(s.secondary_passes);
}
inline void load_gline_stats(ckpt::ArchiveReader& a, GlineStats& s) {
  s.signals = a.u64();
  s.local_flags = a.u64();
  s.acquires_granted = a.u64();
  s.releases = a.u64();
  s.secondary_passes = a.u64();
}

}  // namespace glocks::gline
