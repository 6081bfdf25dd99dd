// The 2D-mesh interconnect: routers, per-tile network interfaces and
// wiring. Every packet crosses the fabric hop by hop.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "common/word_bitset.hpp"
#include "fault/fault.hpp"
#include "noc/message.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace glocks::noc {

class MeshFaultDomain;

/// The whole on-chip data network. One sim::Component: ticking the mesh
/// drains the NICs with a backlog, then ticks the routers that hold a
/// packet whose ready cycle has come (Router::next_ready), each in tile
/// order. No other router is visited — a router tick with no ready head
/// has no architectural effect — so a mesh tick costs the packets due,
/// not the number of tiles or of packets resident. With the fault domain
/// off and no NIC backlog, the mesh then sleeps until the earliest ready
/// bound (until the next send when the fabric is empty), so a packet on
/// a link costs no mesh ticks at all.
///
/// Endpoints send with `send()` (unbounded NIC outbox, so callers never
/// handle backpressure) and receive through the per-tile sink registered
/// with `set_sink()`. Messages between an endpoint and itself are not
/// allowed here — the memory system short-circuits same-tile traffic,
/// matching the paper's observation that local L2 slice accesses produce
/// no network traffic.
class Mesh final : public sim::Component {
 public:
  Mesh(std::uint32_t num_tiles, std::uint32_t width, NocConfig cfg);
  ~Mesh() override;

  std::uint32_t num_tiles() const {
    return static_cast<std::uint32_t>(nics_.size());
  }
  std::uint32_t width() const { return width_; }

  void set_sink(CoreId tile, Router::Sink sink);

  /// Queues `p` for injection at tile `p.src`. Never fails; the NIC holds
  /// packets until the router's local port has room, and the next mesh
  /// tick injects it.
  void send(Packet&& p);

  /// Builds a packet and queues it. `payload` may be null; `kind` tags it
  /// for the receiving endpoint. `now`, the caller's cycle, does not
  /// affect timing: injection happens at the mesh's next tick either way.
  void send(CoreId src, CoreId dst, MsgClass cls, std::uint32_t size_bytes,
            Cycle now, void* payload = nullptr,
            PayloadKind kind = PayloadKind::kNone);

  void tick(Cycle now) override;

  const TrafficStats& stats() const { return stats_; }
  TrafficStats& stats() { return stats_; }
  /// Router ticks actually performed, and those of them that found a
  /// ready head (self-measurement for `--perf`: not serialized, never
  /// read by the simulation).
  std::uint64_t router_visits() const { return router_visits_; }
  std::uint64_t router_busy_visits() const { return router_busy_visits_; }

  /// True when no packet is anywhere in the network (for drain tests).
  bool idle() const { return in_flight_ == 0; }

  /// Arms the mesh fault domain (cfg.mesh must be enabled): registers
  /// two injector wires per directed link, guards every transfer, and
  /// points the routers at the domain's hooks. While the domain is armed
  /// the mesh never sleeps, so scripted kills and retransmission timers
  /// fire on exact cycles. Call before the first tick.
  void enable_fault_domain(const FaultConfig& cfg);
  bool fault_domain_enabled() const { return fault_ != nullptr; }
  /// Closes the domain's ledger and returns its counters (domain must
  /// be armed).
  fault::FaultStats finalize_fault_stats();
  /// One-line dead-link list for SimError messages ("none"/"off").
  std::string fault_context() const;
  /// Multi-line mesh state dump for hang reports: per-router occupancy,
  /// NIC backlog, in-flight census, and (when armed) the fault domain's
  /// dead links and busy guards.
  std::string debug_dump() const;

  /// Minimal hop distance between two tiles.
  std::uint32_t hop_distance(CoreId a, CoreId b) const;

  /// Serializes the whole network: traffic counters, sequence counters,
  /// NIC outboxes and every router's queues (payloads drained to portable
  /// form via `save_payload`). The NIC and router worklists are derived
  /// state and stay out of the archive.
  void save(ckpt::ArchiveWriter& a, const PayloadSaver& save_payload) const;

 private:
  struct Nic {
    /// Per-class outboxes, so a burst in one class cannot head-of-line
    /// block another class at the injection point.
    std::array<common::RingBuffer<Packet>, kNumMsgClasses> outbox;
  };

  /// Stamps the per-source-tile sequence number.
  void stamp_seq(Packet& p);

  std::uint32_t width_;
  NocConfig cfg_;
  TrafficStats stats_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Nic> nics_;
  /// Routers that may hold packets. A router sets its own bit when its
  /// occupancy goes 0 -> 1; tick() clears it after a tick that leaves
  /// the router idle. Every occupied router's bit is set.
  common::WordBitset occupied_;
  /// NICs with a non-empty outbox: send() sets the bit, the drain in
  /// tick() clears it once every outbox is empty.
  common::WordBitset backlogged_;
  std::uint64_t router_visits_ = 0;
  std::uint64_t router_busy_visits_ = 0;
  /// Per-source-tile sequence streams (see stamp_seq); serialized.
  std::vector<std::uint64_t> tile_seq_;
  Cycle last_tick_ = kNoCycle;
  /// Packets anywhere in the network (NIC outboxes + router queues);
  /// while it is zero the mesh sleeps until the next send.
  std::uint64_t in_flight_ = 0;
  /// Mesh fault domain (null in faults-off runs: every baseline path is
  /// byte-identical to a build without the feature).
  std::unique_ptr<MeshFaultDomain> fault_;
};

}  // namespace glocks::noc
