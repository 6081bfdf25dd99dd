// A 5-port 2D-mesh router with XY dimension-order routing and one
// virtual channel per message class.
//
// Model: one bounded FIFO per (input port, message class); each cycle
// every output port forwards at most one packet, arbitrated round-robin
// across (port, class) pairs, so a burst of Coherence traffic cannot
// head-of-line-block Replies sharing the port. Messages of one class
// between one (source, destination) pair still deliver in FIFO order —
// the ordering property the protocol relies on. A forwarded packet
// becomes visible at the next router after router_latency + link_latency
// cycles; a packet routed to the local port is handed to the tile's sink
// after router_latency cycles.
//
// Ready time: every queued packet carries the cycle it becomes routable,
// and the router keeps a lower bound on the earliest such cycle over its
// queue heads (next_ready()). A cycle before that bound has no ready head,
// so the router would do nothing at all on it: the mesh does not visit
// the router then, and sleeps through cycles on which no router is due.
// Arbitration walks a mask of the non-empty input queues instead of all
// 15 (port, class) slots.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"

namespace glocks::ckpt {
class ArchiveWriter;
class ArchiveReader;
}  // namespace glocks::ckpt

namespace glocks::noc {

enum class Dir : std::uint8_t {
  kLocal = 0,
  kNorth = 1,
  kSouth = 2,
  kEast = 3,
  kWest = 4
};
inline constexpr std::size_t kNumDirs = 5;

constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::kNorth:
      return Dir::kSouth;
    case Dir::kSouth:
      return Dir::kNorth;
    case Dir::kEast:
      return Dir::kWest;
    case Dir::kWest:
      return Dir::kEast;
    case Dir::kLocal:
      return Dir::kLocal;
  }
  return Dir::kLocal;
}

struct RouterTiming {
  Cycle router_latency = 3;
  Cycle link_latency = 1;
  std::uint32_t input_queue_depth = 16;
};

/// Serializes/deserializes the opaque payload a Packet carries. The NoC
/// cannot interpret `Packet::payload` itself (the pointee lives in a
/// typed pool owned by the memory hierarchy), so whoever owns the pools
/// supplies the codec: `save` drains the pointee to portable bytes,
/// `load` re-acquires a pool node and installs the pointer. Both are
/// keyed off the packet's PayloadKind tag.
struct PayloadCodec {
  std::function<void(ckpt::ArchiveWriter&, const Packet&)> save;
  std::function<void(ckpt::ArchiveReader&, Packet&)> load;
  /// Releases a live payload back to its pool; load() calls this on
  /// every packet it is about to discard so node accounting stays exact.
  std::function<void(Packet&)> drop;
};

/// Portable packet encoding: every field except the raw payload pointer,
/// then the payload bytes via the codec.
void save_packet(ckpt::ArchiveWriter& a, const Packet& p,
                 const PayloadCodec& codec);
Packet load_packet(ckpt::ArchiveReader& a, const PayloadCodec& codec);

/// Hooks the router consults when the mesh fault domain is enabled
/// (faults-off runs carry a null pointer and take the exact baseline
/// paths). Implemented by noc::MeshFaultDomain, which owns the link
/// guards (stop-and-wait ARQ per directed link and message class), the
/// dead-link set, and the detour routing tables.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;
  /// Routing decision for `dst` at `tile`: XY while every link is alive,
  /// the detour table once any link has died. Returns kNumDirs when the
  /// destination is currently unreachable (the head must hold; the
  /// end-to-end watchdog at the MSHR layer is the escape hatch).
  virtual std::uint32_t next_hop(std::uint32_t tile, std::uint32_t dst) = 0;
  /// True when the head of input queue (in, cls) at `tile` is owned by a
  /// busy link guard (an in-flight, not-yet-acknowledged frame):
  /// arbitration must leave it queued until the guard resolves.
  virtual bool head_locked(std::uint32_t tile, Dir in, MsgClass cls) = 0;
  /// True when the (tile, out, cls) guard is mid-transfer: no new frame
  /// may start on that link/class this cycle (stop-and-wait).
  virtual bool link_busy(std::uint32_t tile, Dir out, MsgClass cls) = 0;
  /// Starts a guarded transfer of the head of (in, cls) through `out`.
  /// The model judges the link fate: on delivery it moves the packet
  /// into the downstream router itself (capacity pre-checked by the
  /// caller); on loss/garble the head stays queued and the guard's
  /// retransmission watchdog takes over. Either way the output port is
  /// consumed for this cycle.
  virtual void start_transfer(std::uint32_t tile, Dir out, Dir in,
                              MsgClass cls, Cycle now) = 0;
};

class Router {
 public:
  using Sink = std::function<void(Packet&&)>;

  /// `x`,`y` — mesh coordinates; `mesh_w` — mesh width for XY routing.
  /// `occupied_word` / `occupied_mask` locate this router's bit in the
  /// mesh's occupied-router worklist: the router sets it whenever its
  /// occupancy goes 0 -> 1 (the mesh clears it after a tick that leaves
  /// the router idle). The word must outlive the router.
  Router(std::uint32_t x, std::uint32_t y, std::uint32_t mesh_w,
         RouterTiming timing, TrafficStats& stats,
         std::uint64_t* occupied_word, std::uint64_t occupied_mask);

  std::uint32_t x() const { return x_; }
  std::uint32_t y() const { return y_; }
  /// Tile id in the mesh's row-major layout.
  std::uint32_t tile() const { return y_ * mesh_w_ + x_; }

  /// Arms the mesh fault domain's hooks (null = faults-off baseline).
  void set_fault_model(LinkFaultModel* m) { fault_ = m; }

  /// Wires the output in direction `d` to `neighbor` (non-owning).
  void connect(Dir d, Router& neighbor) { neighbors_[idx(d)] = &neighbor; }
  /// Registers the callback receiving packets addressed to this tile.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Attempts to place a locally-injected packet into the local input
  /// port; returns false when that FIFO is full. The packet becomes
  /// routable next cycle.
  bool inject(Packet&& p, Cycle now);

  /// Called by the upstream router when it forwards a packet here.
  /// Capacity must have been checked with can_accept() in the same cycle.
  void accept(Dir in, Packet&& p, Cycle ready);
  bool can_accept(Dir in, MsgClass cls) const;

  /// One cycle of arbitration + forwarding + local delivery; returns
  /// whether the router had at least one ready head (an input-FIFO head
  /// or pending local delivery with ready <= now). The round-robin
  /// pointer advances only on such cycles — any other tick has no
  /// architectural effect at all, so skipped or folded cycles are exact.
  /// Returns at once when `now < next_ready()`.
  bool tick(Cycle now);

  /// Lower bound on the earliest ready cycle over every queue head: no
  /// head is ready before it. Every push lowers it, a tick recomputes it
  /// from the queue fronts, and a pop leaves it (still a lower bound).
  /// kNoCycle when the router has been idle since its last tick.
  Cycle next_ready() const { return next_ready_; }

  /// Credits one busy-tick's round-robin rotation without ticking. Used
  /// by the mesh's express path: a virtual flight's switch traversal (or
  /// final local delivery) at this router is exactly one cycle on which
  /// the hop-by-hop scan would have seen a ready head.
  void credit_busy_tick() { rr_ = (rr_ + 1) % kSlots; }

  /// True when every queue (inputs and pending local deliveries) is empty.
  bool idle() const { return occupancy_ == 0; }
  /// Packets resident in this router (all input FIFOs + local_out_).
  std::uint32_t occupancy() const { return occupancy_; }

  /// Decides the output direction for a packet destined to tile coords.
  Dir route(std::uint32_t dst_x, std::uint32_t dst_y) const;

  /// Express materialization (Mesh only): places a packet directly into
  /// an input FIFO with an explicit ready cycle — exactly the entry the
  /// hop-by-hop path would hold at this point. Records no statistics;
  /// the Mesh credits the hops already "performed" itself. Capacity is
  /// checked: the express reservation ledger guarantees room.
  void place(Dir in, MsgClass cls, Packet&& p, Cycle ready);
  /// Same, for the local ejection queue (a flight past its last switch).
  void place_local(Packet&& p, Cycle ready);

  /// Fault-domain access to a guarded queue head: the guard inspects the
  /// in-flight frame (peek) and removes it on successful link delivery
  /// (take). Only meaningful while a guard owns the head.
  const Packet& peek_head(Dir in, MsgClass cls) const;
  Packet take_head(Dir in, MsgClass cls);

  /// Serializes queue contents (front-to-back, with ready cycles), the
  /// round-robin pointer, and the occupancy counter. Payload pointees go
  /// through `codec`; geometry/wiring is reconstructed by the builder.
  /// The ready bound and the non-empty mask are derived: load() rebuilds
  /// the mask and resets the bound to 0 (due at once).
  void save(ckpt::ArchiveWriter& a, const PayloadCodec& codec) const;
  void load(ckpt::ArchiveReader& a, const PayloadCodec& codec);

 private:
  struct Timed {
    Cycle ready = 0;
    Packet pkt;
  };

  static constexpr std::uint32_t kSlots = kNumDirs * kNumMsgClasses;

  static std::size_t idx(Dir d) { return static_cast<std::size_t>(d); }
  /// Arbitration slot of input queue (port, class): port-major, the
  /// round-robin scan order.
  static std::size_t slot(Dir in, MsgClass cls) {
    return idx(in) * kNumMsgClasses + static_cast<std::size_t>(cls);
  }
  /// Appends to queue `s` or (s == kSlots) to local_out_, lowering the
  /// ready bound and marking the router occupied in the mesh worklist on
  /// the 0 -> 1 edge.
  void push(std::size_t s, Timed&& t) {
    if (t.ready < next_ready_) next_ready_ = t.ready;
    if (s == kSlots) {
      local_out_.push_back(std::move(t));
    } else {
      in_[s].push_back(std::move(t));
      nonempty_ |= 1u << s;
    }
    if (occupancy_++ == 0) *occupied_word_ |= occupied_mask_;
  }
  /// Removes the head of input queue `s`.
  Packet pop(std::size_t s) {
    auto& q = in_[s];
    Packet p = std::move(q.front().pkt);
    q.pop_front();
    if (q.empty()) nonempty_ &= ~(1u << s);
    --occupancy_;
    return p;
  }
  /// Arbitrates the head of input queue `s` (known non-empty) for this
  /// cycle: forwards it unless it is not ready yet, held by the fault
  /// domain, or its output is taken or backpressured. Sets `busy` when
  /// the head was ready.
  void arbitrate(std::size_t s, Cycle now, bool (&out_used)[kNumDirs],
                 bool& busy);
  void forward(Dir out, Packet&& p, Cycle now);

  std::uint32_t x_, y_, mesh_w_;
  RouterTiming timing_;
  TrafficStats& stats_;
  /// Input FIFOs, indexed by slot(port, virtual channel = message
  /// class). Ring buffers grow to input_queue_depth once and then cycle
  /// allocation-free; the logical depth bound is enforced here, not by
  /// the ring.
  std::array<common::RingBuffer<Timed>, kSlots> in_;
  std::array<Router*, kNumDirs> neighbors_{};
  common::RingBuffer<Timed> local_out_;
  Sink sink_;
  std::uint32_t rr_ = 0;  ///< round-robin start index for input arbitration
  LinkFaultModel* fault_ = nullptr;  ///< mesh fault domain hooks (may be null)
  /// Packets resident in this router (all input FIFOs + local_out_).
  std::uint32_t occupancy_ = 0;
  /// Bit slot(port, class) is set iff that input FIFO is non-empty.
  std::uint32_t nonempty_ = 0;
  Cycle next_ready_ = kNoCycle;  ///< see next_ready()
  std::uint64_t* occupied_word_;  ///< this router's worklist word and bit
  std::uint64_t occupied_mask_;
};

}  // namespace glocks::noc
