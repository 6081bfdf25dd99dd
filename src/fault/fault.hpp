// Deterministic fault injection for the G-line lock network.
//
// The paper treats the dedicated single-bit wires as fault-free; this
// subsystem lets a run schedule transient frame drops, corruptions,
// bounded delivery delays, receiver-side spurious pulse bursts, and
// permanent stuck-at wires — all as a pure function of (fault seed, wire
// id, cycle), so a fault-enabled run is exactly as reproducible as a
// clean one (PR 1's determinism contract extends verbatim).
//
// Accounting model: every perturbation the injector performs becomes one
// ledger FaultEvent. An event ends its life in exactly one of two states:
//   * detected  — some recovery mechanism observed it (a receiver
//                 discarded an invalid frame, a sender watchdog fired, a
//                 link was declared dead), stamped with the detection
//                 cycle so latency can be histogrammed;
//   * tolerated — the protocol absorbed it without a dedicated detection
//                 (a delayed frame that still arrived inside the
//                 watchdog window, a dropped duplicate whose original
//                 was already acknowledged).
// finalize() closes the ledger, so `injected == detected + tolerated`
// reconciles exactly — the property test holds us to that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace glocks::fault {

enum class FaultKind : std::uint8_t {
  kDrop,       ///< transient frame loss in flight
  kGarble,     ///< frame arrives but fails the validity check
  kDelay,      ///< frame delivered 1..max_delay cycles late
  kNoise,      ///< spurious pulse burst seen by a receiver
  kStuck,      ///< a wire went permanently dead (one event per wire)
  kStuckDrop,  ///< a frame lost to an already-stuck wire
};
inline constexpr std::size_t kNumFaultKinds = 6;

const char* to_string(FaultKind k);

/// Ledger entry for one injected perturbation.
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  std::uint32_t wire = 0;
  Cycle injected = 0;
  Cycle detected_at = kNoCycle;  ///< kNoCycle while pending / tolerated
  bool closed = false;           ///< detected or tolerated
  bool tolerated = false;
};

/// Detection latencies are histogrammed over log2 buckets: bucket b
/// (1-based, as Histogram bins are) holds latencies in [2^(b-1), 2^b).
inline constexpr std::uint32_t kLatencyBuckets = 24;

/// Aggregated fault/recovery counters for one run. Flows into RunResult,
/// the report layer and the sweep CSV (only when fault mode is on, so
/// baseline output stays byte-identical).
struct FaultStats {
  bool enabled = false;

  std::uint64_t injected[kNumFaultKinds] = {};
  std::uint64_t detected = 0;
  std::uint64_t tolerated = 0;

  std::uint64_t retransmissions = 0;          ///< data frames re-sent
  std::uint64_t watchdog_timeouts = 0;        ///< sender watchdog fires
  std::uint64_t spurious_retransmissions = 0; ///< timer fired, no fault
  std::uint64_t rx_discards = 0;              ///< invalid frames dropped
  std::uint64_t duplicate_frames = 0;         ///< ARQ-filtered duplicates
  std::uint64_t link_failures = 0;            ///< links declared dead
  std::uint64_t fallback_demotions = 0;       ///< GLocks demoted
  std::uint64_t fallback_acquires = 0;        ///< acquires served by SW

  // ---- mesh-domain extras (zero in G-line-only runs) ----
  std::uint64_t reroutes = 0;       ///< forwards taken off the XY route
  std::uint64_t e2e_timeouts = 0;   ///< MSHR end-to-end watchdog fires
  std::uint64_t e2e_retries = 0;    ///< coherence requests re-issued
  std::uint64_t e2e_dup_drops = 0;  ///< duplicate requests the dir filtered

  std::uint64_t detection_latency_sum = 0;
  std::uint64_t detection_count = 0;
  Histogram detection_latency{kLatencyBuckets};

  std::uint64_t injected_total() const {
    std::uint64_t t = 0;
    for (auto v : injected) t += v;
    return t;
  }
  double mean_detection_latency() const {
    return detection_count == 0 ? 0.0
                                : static_cast<double>(detection_latency_sum) /
                                      static_cast<double>(detection_count);
  }
};

/// Checkpoint codec for the aggregated counters (including the detection
/// latency histogram, bin by bin).
void save_fault_stats(ckpt::ArchiveWriter& a, const FaultStats& s);

/// Shared health board: the lock factory reads it to decide whether a
/// GLock id still has working hardware behind it, and the fallback lock
/// wrapper reports its activity here (the G-line system owns the board
/// and merges the counters into FaultStats).
struct GlockHealth {
  explicit GlockHealth(std::uint32_t num_glocks)
      : demoted(num_glocks, 0) {}
  std::vector<std::uint8_t> demoted;  ///< per GLock id; stable addresses
  std::uint64_t fallback_acquires = 0;
};

/// Checkpoint codec for the health board.
void save_glock_health(ckpt::ArchiveWriter& a, const GlockHealth& h);

/// Outcome of sending one frame on a wire, plus the ledger events that
/// ride along. `events` carries at most two ids (a garble and a delay can
/// coincide); dropped frames hand their event back to the sender so the
/// watchdog that eventually fires can claim it.
struct FrameFate {
  bool lost = false;
  bool garbled = false;
  Cycle extra_delay = 0;
  std::int32_t sender_event = -1;    ///< drop/stuck-drop id, else -1
  std::int32_t garble_event = -1;    ///< rides with the frame
  std::int32_t delay_event = -1;     ///< rides with the frame
};

/// The seeded fault oracle. One per simulated machine; single-threaded
/// like everything else inside a run.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  /// Registers a physical wire and decides (deterministically) whether
  /// and when it goes stuck-at. Returns the wire id used in every later
  /// call.
  std::uint32_t register_wire();

  /// Rolls the fate of a frame sent on `wire` at `now`.
  FrameFate judge_frame(std::uint32_t wire, Cycle now);

  /// Spurious pulse burst at the receiver of `wire` this cycle?
  /// Returns the ledger event id, or -1.
  std::int32_t noise_event_at(std::uint32_t wire, Cycle now);

  /// Noise lookahead: the first cycle in [from, until) on which
  /// noise_event_at(wire, ·) would fire; `until` when none does; kNoCycle
  /// when the wire can never carry noise again (noise off, or stuck at or
  /// before the first firing cycle). Same (seed, wire, cycle) predicate,
  /// compared as an integer threshold; records nothing.
  Cycle next_noise(std::uint32_t wire, Cycle from, Cycle until) const;

  // ---- lifecycle callbacks from the guarded transport ----
  /// Receiver discarded an invalid frame carrying `event` (garble/noise).
  void on_rx_discard(std::int32_t event, Cycle now);
  /// A delayed frame was delivered; its delay was absorbed.
  void on_tolerated(std::int32_t event);
  /// A sender watchdog fired; `events` are the drops it detected.
  void on_detected(const std::vector<std::int32_t>& events, Cycle now);
  /// A link was declared dead: its wires' stuck events are detected.
  void on_wire_dead(std::uint32_t wire, Cycle now);

  std::uint64_t& counter(std::uint64_t FaultStats::* field) {
    return stats_.*field;
  }
  FaultStats& stats() { return stats_; }

  /// Closes the ledger (pending events become tolerated) and fills the
  /// detected/tolerated totals. Idempotent.
  void finalize();

  const FaultConfig& config() const { return cfg_; }
  Cycle stuck_from(std::uint32_t wire) const { return stuck_from_[wire]; }

  /// Checkpoint: stuck-at schedule, event ledger, aggregated stats, and
  /// the finalized flag. The config is construction-time state.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  double roll(std::uint32_t wire, Cycle now, std::uint32_t salt) const;
  std::int32_t record(FaultKind k, std::uint32_t wire, Cycle now);
  void close_detected(std::int32_t event, Cycle now);

  FaultConfig cfg_;
  /// roll()'s per-salt seed hash and the noise rate as a bound on its 53
  /// hash bits, so next_noise() rolls one mix() per cycle.
  std::uint64_t noise_seed_ = 0;
  std::uint64_t noise_threshold_ = 0;
  std::vector<Cycle> stuck_from_;  ///< kNoCycle = never
  std::vector<std::int32_t> stuck_event_;
  std::vector<FaultEvent> ledger_;
  FaultStats stats_;
  bool finalized_ = false;
};

/// Parses a --faults specification. Three forms, combinable in one
/// comma list:
///   * a bare rate ("0.01") — the historical shorthand; applies to the
///     G-line domain's four transient kinds with stuck = rate / 10;
///   * unprefixed key=value pairs (drop, garble, delay, noise, stuck,
///     max_delay, stuck_horizon, timeout, backoff_cap, retries, seed,
///     fallback=mcs|tatas) — also the G-line domain, unchanged from the
///     original grammar;
///   * domain-prefixed pairs: `gline:KEY=V` (same keys as above) and
///     `mesh:KEY=V` with keys rate (shorthand: drop=garble=delay=rate,
///     dead=rate/10), drop, garble, delay, max_delay, dead, dead_horizon,
///     timeout, backoff_cap, retries, e2e_timeout, e2e_retries, and
///     kill=TILE.DIR@CYCLE (DIR in n/s/e/w; repeatable) which schedules a
///     deterministic permanent link death. `seed` is shared by both
///     domains under any spelling.
/// A domain is enabled iff the spec names it (bare rates and unprefixed
/// keys name the G-line domain, preserving backward compatibility).
/// Throws SimError naming the offending token on malformed input.
FaultConfig parse_fault_spec(const std::string& spec);

/// Human-readable one-paragraph summary for reports.
std::string summary(const FaultStats& s);

/// Mesh-domain flavour of summary(): same ledger lines, mesh wording
/// (dead links instead of demotions, detour/e2e counters).
std::string mesh_summary(const FaultStats& s);

}  // namespace glocks::fault
