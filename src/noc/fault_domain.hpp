// Mesh-NoC fault domain: per-link fault injection, link-level guarded
// transfer (checksummed frames, stop-and-wait retransmission with bounded
// exponential backoff), permanent link death, and fault-aware detour
// routing. See docs/fault_model.md, "Mesh fault domain".
//
// Every directed router-to-router link owns two injector wires — a data
// wire the frames cross and an ack wire the acknowledgements return on —
// so the PR 2 fault machinery (pure-hash fates, the event ledger and its
// injected == detected + tolerated reconciliation) is reused verbatim.
// Guards hold no packets: an in-flight frame *is* the head of its input
// FIFO at the sending router until the ack lands, so the checkpoint
// format stays packet-exact. All judging happens inside Mesh::tick, in a
// fixed scan order, so faulted runs are bit-identical across --jobs and
// checkpoint/restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/word_bitset.hpp"
#include "fault/fault.hpp"
#include "noc/message.hpp"
#include "noc/router.hpp"

namespace glocks::noc {

class MeshFaultDomain final : public LinkFaultModel {
 public:
  /// `seed` is the shared fault seed (FaultConfig::seed, already mixed
  /// with the run seed by the tools); the domain salts it so the G-line
  /// and mesh injectors draw independent streams.
  MeshFaultDomain(const MeshFaultConfig& cfg, std::uint64_t seed,
                  const NocConfig& noc, std::uint32_t num_tiles,
                  std::uint32_t width,
                  std::vector<std::unique_ptr<Router>>& routers,
                  TrafficStats& stats);

  // ---- LinkFaultModel (called from Router::tick arbitration) ----
  std::uint32_t next_hop(std::uint32_t tile, std::uint32_t dst) override;
  bool head_locked(std::uint32_t tile, Dir in, MsgClass cls) override;
  bool link_busy(std::uint32_t tile, Dir out, MsgClass cls) override;
  void start_transfer(std::uint32_t tile, Dir out, Dir in, MsgClass cls,
                      Cycle now) override;

  /// One cycle of domain work, run by Mesh::tick before the router scan:
  /// applies scripted link kills due this cycle, then walks the busy
  /// guards in fixed (tile, dir, class) order — completing acknowledged
  /// transfers, firing retransmission watchdogs, and declaring links
  /// dead when a guard exhausts its retry budget.
  void advance(Cycle now);

  /// Closes the injector ledger and returns the domain's counters.
  fault::FaultStats finalize_stats();
  fault::FaultStats& stats() { return injector_.stats(); }

  std::uint64_t dead_links() const { return deaths_; }
  /// One-line dead-link list for SimError messages ("none" when intact).
  std::string context() const;
  /// Multi-line state dump for hang reports: dead links and busy guards.
  std::string debug_dump() const;

  /// Checkpoint: injector (ledger + stats), dead-link set, scripted-kill
  /// progress, and every guard. Detour tables are recomputed on load.
  void save(ckpt::ArchiveWriter& a) const;
  void load(ckpt::ArchiveReader& a);

 private:
  /// One directed router-to-router link (tile -> neighbor through dir).
  struct Link {
    bool exists = false;
    bool dead = false;
    std::uint32_t nbr = 0;        ///< downstream tile id
    std::uint32_t data_wire = 0;  ///< injector wire the frames cross
    std::uint32_t ack_wire = 0;   ///< injector wire the acks return on
  };

  /// Stop-and-wait ARQ state for one (directed link, message class).
  /// The guarded frame is the head of input queue (in_port, class) at
  /// the sending router while `busy && !delivered`; once delivered the
  /// packet lives downstream and only the ack is outstanding.
  struct Guard {
    bool busy = false;
    bool delivered = false;
    bool had_fault = false;  ///< this attempt window saw any fault
    Dir in_port = Dir::kLocal;
    Cycle ack_at = kNoCycle;   ///< ack completion, when one is en route
    Cycle retry_at = kNoCycle; ///< retransmission watchdog deadline
    std::uint32_t retries = 0;
    std::vector<std::int32_t> pending;  ///< open ledger events (drops)
  };

  static std::size_t dir_slot(Dir d) {
    return static_cast<std::size_t>(d) - 1;  // kNorth..kWest -> 0..3
  }
  Link& link(std::uint32_t tile, Dir d) {
    return links_[tile * 4 + dir_slot(d)];
  }
  const Link& link(std::uint32_t tile, Dir d) const {
    return links_[tile * 4 + dir_slot(d)];
  }
  static std::size_t guard_index(std::uint32_t tile, Dir d, MsgClass cls) {
    return (tile * 4 + dir_slot(d)) * kNumMsgClasses +
           static_cast<std::size_t>(cls);
  }
  Guard& guard(std::uint32_t tile, Dir d, MsgClass cls) {
    return guards_[guard_index(tile, d, cls)];
  }
  const Guard& guard(std::uint32_t tile, Dir d, MsgClass cls) const {
    return guards_[guard_index(tile, d, cls)];
  }

  /// XY dimension-order decision (same as Router::route), by tile ids.
  Dir xy_dir(std::uint32_t tile, std::uint32_t dst) const;
  /// Sends (or re-sends) the guarded frame on its link: judges the data
  /// wire, delivers/holds the packet, then judges the ack leg.
  void attempt(std::uint32_t tile, Dir out, MsgClass cls, Guard& g,
               Cycle now);
  /// Exponential backoff for the `retries`-th retransmission.
  Cycle backoff(std::uint32_t retries) const;
  /// Declares the directed link dead: closes its guards and stuck
  /// events, counts the failure, and rebuilds the detour tables.
  void kill_link(std::uint32_t tile, Dir d, Cycle now);
  /// Rebuilds the per-destination next-hop tables under the up*/down*
  /// turn model on the surviving links: deterministic, and free of
  /// cyclic channel dependencies (so detoured traffic cannot deadlock).
  void recompute_detours();

  std::uint64_t& counter(std::uint64_t fault::FaultStats::* f) {
    return injector_.counter(f);
  }

  MeshFaultConfig cfg_;
  NocConfig noc_;
  std::uint32_t num_tiles_;
  std::uint32_t width_;
  std::vector<std::unique_ptr<Router>>& routers_;
  TrafficStats& stats_;
  fault::FaultInjector injector_;
  std::vector<Link> links_;    ///< [tile*4 + dir-1]
  std::vector<Guard> guards_;  ///< [(tile*4 + dir-1)*3 + class]
  /// Indices of the busy guards: start_transfer sets a bit, an ack or a
  /// link death clears it. Derived from Guard::busy; load() rebuilds it.
  common::WordBitset busy_;
  std::vector<LinkKill> kills_;  ///< scripted, sorted by (at, tile, dir)
  std::size_t next_kill_ = 0;
  std::uint64_t deaths_ = 0;
  /// Per-destination next-hop table, valid while deaths_ > 0:
  /// detour_[tile * num_tiles + dst] is the Dir (1..4) leaving `tile`
  /// toward `dst`, or kUnreachable.
  static constexpr std::uint8_t kUnreachable = 0xFF;
  std::vector<std::uint8_t> detour_;
  Cycle retry_base_ = 0;  ///< watchdog floor covering one worst-case RTT
};

}  // namespace glocks::noc
