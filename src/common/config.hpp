// CMP configuration: the knobs of the simulated machine.
//
// Defaults reproduce Table II of the paper (32-core tiled CMP, 3 GHz
// in-order 2-way cores, 32KB 4-way L1s with 2-cycle access, 256KB-per-core
// 4-way shared distributed L2 with 12+4-cycle access, 400-cycle memory,
// 2D mesh with 75-byte links).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace glocks {

/// L1 cache geometry and timing.
struct L1Config {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 4;
  Cycle access_latency = 2;

  std::uint32_t num_sets() const {
    return size_bytes / (ways * kLineBytes);
  }
};

/// Per-tile slice of the shared distributed L2.
struct L2Config {
  std::uint32_t slice_size_bytes = 256 * 1024;
  std::uint32_t ways = 4;
  /// Tag + directory lookup portion of the access (paper: "12+4 cycles").
  Cycle tag_latency = 12;
  /// Data array portion of the access.
  Cycle data_latency = 4;

  std::uint32_t num_sets() const {
    return slice_size_bytes / (ways * kLineBytes);
  }
};

/// 2D-mesh on-chip network parameters.
struct NocConfig {
  /// Router pipeline depth in cycles (per hop).
  Cycle router_latency = 3;
  /// Link traversal in cycles (per hop).
  Cycle link_latency = 1;
  /// Link width in bytes (Table II: 75 bytes — any protocol message fits in
  /// one flit, so serialization never adds cycles).
  std::uint32_t link_width_bytes = 75;
  /// Bound on each router input FIFO; requests stall upstream when full.
  std::uint32_t input_queue_depth = 16;
  /// Size in bytes of a control (address-only) message.
  std::uint32_t control_msg_bytes = 8;
  /// Size in bytes of a message carrying a full cache line.
  std::uint32_t data_msg_bytes = 8 + kLineBytes;
};

/// Dedicated G-line lock network parameters (paper Section III).
struct GlineConfig {
  /// Number of hardware GLocks provisioned (paper Section IV-C: two).
  std::uint32_t num_glocks = 2;
  /// Number of hardware G-line barrier units ([22]; used by the barrier
  /// ablation — the paper's own evaluation uses the software tree
  /// barrier, which stays the default in workloads).
  std::uint32_t num_gbarriers = 1;
  /// Cycles for a 1-bit signal to cross one dimension of the chip. The
  /// baseline technology gives 1; the future-work scaling path (Section V)
  /// explores longer-latency G-lines, exercised by the ablation bench.
  Cycle signal_latency = 1;
  /// Build the Section V hierarchical G-line network (arbitrary-depth
  /// token tree) instead of the flat two-level design. A chip wider than
  /// the single-cycle reach (7x7) at unit signal latency gets the tree
  /// even when this is false, with or without faults.
  bool hierarchical = false;
  /// Max transmitters a single G-line supports (Section III-F cites six,
  /// bounding the baseline design at 7x7 meshes). The per-transmitter
  /// wiring used here never shares a line, but the bound still limits the
  /// manager fan-in per row.
  std::uint32_t max_transmitters_per_line = 6;
};

/// A scripted permanent mesh-link kill for deterministic experiments:
/// the directed link leaving `tile` through `dir` dies at cycle `at`,
/// exactly as if the injector's stuck-at fate had fired there. `dir`
/// uses the router direction encoding (1=N, 2=S, 3=E, 4=W).
struct LinkKill {
  std::uint32_t tile = 0;
  std::uint32_t dir = 0;
  Cycle at = 0;
};

/// Mesh-NoC fault domain (see docs/fault_model.md, "Mesh fault domain").
/// Independent of the G-line domain: each directed router-to-router link
/// gets a data wire and an ack wire in the injector, transfers become
/// guarded (checksummed, stop-and-wait retransmission with bounded
/// exponential backoff), exhausted retries kill the link permanently and
/// routing detours around it, and the L1 MSHR layer arms end-to-end
/// watchdogs so a request that dies in the fabric is retried and, past
/// its budget, surfaces as a structured SimError instead of a hang.
struct MeshFaultConfig {
  bool enabled = false;

  // ---- transient faults (per frame crossing a mesh link) ----
  double drop_rate = 0.0;    ///< frame silently lost on the link
  double garble_rate = 0.0;  ///< frame arrives but fails its checksum
  double delay_rate = 0.0;   ///< frame delivered late by 1..max_delay cycles
  std::uint32_t max_delay = 8;

  // ---- permanent faults ----
  double dead_rate = 0.0;    ///< per-directed-link chance of dying outright
  Cycle dead_horizon = 50000;  ///< onset cycle uniform in [0, horizon)

  // ---- link-level ARQ knobs ----
  Cycle retry_timeout = 32;      ///< retransmit timer floor (cycles)
  Cycle backoff_cap = 4096;      ///< exponential backoff ceiling
  std::uint32_t max_retries = 8; ///< attempts before the link is declared dead

  // ---- end-to-end protocol watchdog (L1 MSHR layer) ----
  /// Request timeout before the MSHR retries; 0 derives a generous bound
  /// from the machine geometry (worst-case round trip with margin).
  Cycle e2e_timeout = 0;
  std::uint32_t e2e_max_retries = 6;  ///< retries before a SimError

  /// Scripted link deaths on top of (or instead of) `dead_rate`.
  std::vector<LinkKill> kills;

  void validate() const;
};

/// G-line fault-injection model (see docs/fault_model.md). The paper
/// assumes the dedicated lock network is fault-free; this block opts a run
/// into a deterministic, seeded fault schedule and enables the guarded
/// transport (framed signalling + watchdog/retransmission + fallback to a
/// coherence lock when a wire is declared permanently dead). With
/// `enabled == false` (the default) the simulator takes the exact pre-fault
/// code paths, so all baseline output is byte-identical.
struct FaultConfig {
  bool enabled = false;
  /// Injector stream seed. Tools mix the run seed in so that fault
  /// schedules replicate per (run seed, fault seed) pair.
  std::uint64_t seed = 0;

  // ---- transient faults (per frame sent on a G-line wire) ----
  double drop_rate = 0.0;    ///< frame silently lost in flight
  double garble_rate = 0.0;  ///< frame arrives but fails the validity check
  double delay_rate = 0.0;   ///< frame delivered late by 1..max_delay cycles
  std::uint32_t max_delay = 8;
  /// Per-cycle-per-wire probability of a spurious pulse burst at the
  /// receiver (always detected: an isolated burst cannot form a valid
  /// frame — docs/fault_model.md, "why spurious pulses cannot forge").
  double noise_rate = 0.0;

  // ---- permanent faults ----
  double stuck_rate = 0.0;      ///< per-wire chance of going stuck-at
  Cycle stuck_horizon = 50000;  ///< onset cycle uniform in [0, horizon)

  // ---- recovery protocol knobs ----
  Cycle watchdog_timeout = 64;   ///< retransmit timer floor (cycles)
  Cycle backoff_cap = 4096;      ///< exponential backoff ceiling
  std::uint32_t max_retries = 8; ///< attempts before a link is declared dead
  /// Fallback algorithm a demoted GLock degrades to: MCS (default) or
  /// TATAS with exponential backoff.
  bool fallback_tatas = false;

  /// Mesh-NoC fault domain, enabled independently of the G-line domain
  /// (`--faults mesh:...`). `enabled` above keeps its original meaning —
  /// the G-line domain only.
  MeshFaultConfig mesh;

  /// True when any fault domain is active (G-line or mesh). Gates the
  /// things both domains share: seed mixing, --fault-seed, and the
  /// "this run has fault output" checks.
  bool any() const { return enabled || mesh.enabled; }

  void validate() const;
};

/// Whole-machine configuration (paper Table II defaults).
struct CmpConfig {
  std::uint32_t num_cores = 32;
  /// Core clock in MHz (3 GHz). Only used to convert cycles to seconds in
  /// energy reporting.
  std::uint32_t clock_mhz = 3000;
  /// In-order issue width. The core model retires up to this many
  /// non-memory micro-ops per cycle.
  std::uint32_t issue_width = 2;
  Cycle memory_latency = 400;

  L1Config l1;
  L2Config l2;
  NocConfig noc;
  GlineConfig gline;
  FaultConfig fault;

  /// Hard stop for runaway simulations.
  Cycle max_cycles = 2'000'000'000;

  /// Scheduling discipline of the simulation kernel. kEventDriven (the
  /// default) skips cycles where every component is dormant; kSerial is
  /// the original tick-everything loop, kept as the reference the
  /// determinism suite compares against. Results are bit-identical.
  EngineMode engine_mode = EngineMode::kEventDriven;

  /// Budget for the post-run drain phase (flushing in-flight coherence
  /// traffic and letting the G-line network settle). 0 means "derive
  /// from the machine geometry" — see effective_drain_budget().
  Cycle drain_budget = 0;

  /// The drain budget actually applied: `drain_budget` when non-zero,
  /// else a bound computed from the worst-case round trip (memory
  /// latency, full-diameter mesh traversals, cache lookups) with a wide
  /// safety margin. Any drain that exceeds this signals stuck protocol
  /// state, not a slow drain.
  Cycle effective_drain_budget() const;

  /// Mesh width: cores are laid out on the smallest WxH grid with W >= H.
  std::uint32_t mesh_width() const;
  std::uint32_t mesh_height() const;
  /// Total router tiles (W*H). Tiles with id >= num_cores are
  /// router-only pass-throughs that keep the mesh rectangular so XY
  /// routing is always well-defined.
  std::uint32_t mesh_tiles() const { return mesh_width() * mesh_height(); }

  /// Throws SimError when the configuration is internally inconsistent
  /// (e.g. non-power-of-two sets, zero cores).
  void validate() const;

  /// Multi-line human-readable dump in the style of paper Table II.
  std::string to_table() const;
};

}  // namespace glocks
