#include "noc/router.hpp"

#include <algorithm>
#include <bit>

#include "ckpt/archive.hpp"
#include "common/check.hpp"

namespace glocks::noc {

Router::Router(std::uint32_t x, std::uint32_t y, std::uint32_t mesh_w,
               RouterTiming timing, TrafficStats& stats,
               std::uint64_t* occupied_word, std::uint64_t occupied_mask)
    : x_(x),
      y_(y),
      mesh_w_(mesh_w),
      timing_(timing),
      stats_(stats),
      occupied_word_(occupied_word),
      occupied_mask_(occupied_mask) {}

bool Router::inject(Packet&& p, Cycle now) {
  const std::size_t s = slot(Dir::kLocal, p.cls);
  if (in_[s].size() >= timing_.input_queue_depth) return false;
  stats_.record_injection(p.cls);
  push(s, Timed{now + 1, std::move(p)});
  return true;
}

bool Router::can_accept(Dir in, MsgClass cls) const {
  return in_[slot(in, cls)].size() < timing_.input_queue_depth;
}

void Router::accept(Dir in, Packet&& p, Cycle ready) {
  const std::size_t s = slot(in, p.cls);
  GLOCKS_CHECK(in_[s].size() < timing_.input_queue_depth,
               "router (" << x_ << "," << y_ << ") port " << idx(in)
                          << " overflow");
  push(s, Timed{ready, std::move(p)});
}

void Router::place(Dir in, MsgClass cls, Packet&& p, Cycle ready) {
  const std::size_t s = slot(in, cls);
  GLOCKS_CHECK(in_[s].size() < timing_.input_queue_depth,
               "router (" << x_ << "," << y_ << ") port " << idx(in)
                          << " overflow on express materialization");
  push(s, Timed{ready, std::move(p)});
}

void Router::place_local(Packet&& p, Cycle ready) {
  push(kSlots, Timed{ready, std::move(p)});
}

const Packet& Router::peek_head(Dir in, MsgClass cls) const {
  const auto& q = in_[slot(in, cls)];
  GLOCKS_CHECK(!q.empty(), "router (" << x_ << "," << y_
                                      << ") peek on empty queue");
  return q.front().pkt;
}

Packet Router::take_head(Dir in, MsgClass cls) {
  const std::size_t s = slot(in, cls);
  GLOCKS_CHECK(!in_[s].empty(), "router (" << x_ << "," << y_
                                           << ") take on empty queue");
  return pop(s);
}

Dir Router::route(std::uint32_t dst_x, std::uint32_t dst_y) const {
  // XY dimension-order: resolve X first, then Y. Deadlock-free on a mesh.
  if (dst_x > x_) return Dir::kEast;
  if (dst_x < x_) return Dir::kWest;
  if (dst_y > y_) return Dir::kSouth;
  if (dst_y < y_) return Dir::kNorth;
  return Dir::kLocal;
}

void Router::forward(Dir out, Packet&& p, Cycle now) {
  // Every switch traversal counts towards the Figure 9 byte totals.
  stats_.record_hop(p.cls, p.size_bytes);
  if (out == Dir::kLocal) {
    push(kSlots, Timed{now + timing_.router_latency, std::move(p)});
    return;
  }
  Router* n = neighbors_[idx(out)];
  GLOCKS_CHECK(n != nullptr, "router (" << x_ << "," << y_
                                        << ") forwards to missing neighbor");
  n->accept(opposite(out), std::move(p),
            now + timing_.router_latency + timing_.link_latency);
}

void Router::arbitrate(std::size_t s, Cycle now, bool (&out_used)[kNumDirs],
                       bool& busy) {
  auto& q = in_[s];
  if (q.front().ready > now) return;
  busy = true;  // a ready head was arbitrated, even if it ends up held
  const Packet& head = q.front().pkt;
  const auto in_dir = static_cast<Dir>(s / kNumMsgClasses);
  const auto cls = static_cast<MsgClass>(s % kNumMsgClasses);
  Dir out;
  if (fault_ != nullptr) {
    // A head with an in-flight, unacknowledged frame stays queued until
    // its link guard resolves (ack, retransmit, or link death).
    if (fault_->head_locked(tile(), in_dir, cls)) return;
    const std::uint32_t nh = fault_->next_hop(tile(), head.dst);
    if (nh >= kNumDirs) return;  // destination currently unreachable
    out = static_cast<Dir>(nh);
  } else {
    out = route(head.dst % mesh_w_, head.dst / mesh_w_);
  }
  if (out_used[idx(out)]) return;
  if (out != Dir::kLocal) {
    if (!neighbors_[idx(out)]->can_accept(opposite(out), cls)) {
      return;  // backpressure: downstream FIFO (same class) full
    }
    if (fault_ != nullptr) {
      // Guarded transfer: at most one unacknowledged frame per
      // (link, class); the guard judges the fate and either moves the
      // packet downstream or leaves it queued for retransmission.
      if (fault_->link_busy(tile(), out, cls)) return;
      out_used[idx(out)] = true;
      fault_->start_transfer(tile(), out, in_dir, cls, now);
      return;
    }
  }
  out_used[idx(out)] = true;
  forward(out, pop(s), now);
}

bool Router::tick(Cycle now) {
  // No head is ready before the bound, and the round-robin pointer only
  // rotates on cycles where arbitration saw a ready head, so such a tick
  // has no architectural effect at all and is skipped byte-exactly.
  if (now < next_ready_) return false;
  bool busy = false;

  // Deliver matured local packets (at most one per cycle: the local
  // ejection port has unit bandwidth like every other port).
  if (!local_out_.empty() && local_out_.front().ready <= now) {
    GLOCKS_CHECK(sink_, "router (" << x_ << "," << y_ << ") has no sink");
    busy = true;
    Packet p = std::move(local_out_.front().pkt);
    local_out_.pop_front();
    --occupancy_;
    sink_(std::move(p));
  }

  // Arbitration: each output port accepts at most one packet this cycle;
  // each (input port, virtual channel) releases at most its head. The
  // scan visits slots rr_..kSlots-1 and then 0..rr_-1, skipping empty
  // queues, so no port or class can starve another. A router never
  // pushes into its own input queues and pops only the head it is
  // visiting, so the mask read here stays exact for the whole scan.
  bool out_used[kNumDirs] = {};
  const std::uint32_t nonempty = nonempty_;
  for (std::uint32_t m = nonempty & (~0u << rr_); m != 0; m &= m - 1) {
    arbitrate(static_cast<std::size_t>(std::countr_zero(m)), now, out_used,
              busy);
  }
  for (std::uint32_t m = nonempty & ((1u << rr_) - 1); m != 0; m &= m - 1) {
    arbitrate(static_cast<std::size_t>(std::countr_zero(m)), now, out_used,
              busy);
  }
  if (busy) rr_ = (rr_ + 1) % kSlots;

  Cycle next = local_out_.empty() ? kNoCycle : local_out_.front().ready;
  for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
    next = std::min(next, in_[std::countr_zero(m)].front().ready);
  }
  next_ready_ = next;
  return busy;
}

void save_packet(ckpt::ArchiveWriter& a, const Packet& p,
                 const PayloadCodec& codec) {
  a.u32(p.src);
  a.u32(p.dst);
  a.u8(static_cast<std::uint8_t>(p.cls));
  a.u8(static_cast<std::uint8_t>(p.kind));
  a.u32(p.size_bytes);
  a.u64(p.seq);
  codec.save(a, p);
}

Packet load_packet(ckpt::ArchiveReader& a, const PayloadCodec& codec) {
  Packet p;
  p.src = a.u32();
  p.dst = a.u32();
  p.cls = static_cast<MsgClass>(a.u8());
  p.kind = static_cast<PayloadKind>(a.u8());
  p.size_bytes = a.u32();
  p.seq = a.u64();
  codec.load(a, p);
  return p;
}

void Router::save(ckpt::ArchiveWriter& a, const PayloadCodec& codec) const {
  for (const auto& q : in_) {
    a.u64(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      a.u64(q[i].ready);
      save_packet(a, q[i].pkt, codec);
    }
  }
  a.u64(local_out_.size());
  for (std::size_t i = 0; i < local_out_.size(); ++i) {
    a.u64(local_out_[i].ready);
    save_packet(a, local_out_[i].pkt, codec);
  }
  a.u32(rr_);
  a.u32(occupancy_);
}

void Router::load(ckpt::ArchiveReader& a, const PayloadCodec& codec) {
  nonempty_ = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    auto& q = in_[s];
    for (std::size_t i = 0; i < q.size(); ++i) codec.drop(q[i].pkt);
    q.clear();
    const std::uint64_t n = a.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      Timed t;
      t.ready = a.u64();
      t.pkt = load_packet(a, codec);
      q.push_back(std::move(t));
    }
    if (n != 0) nonempty_ |= 1u << s;
  }
  for (std::size_t i = 0; i < local_out_.size(); ++i) {
    codec.drop(local_out_[i].pkt);
  }
  local_out_.clear();
  const std::uint64_t n = a.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Timed t;
    t.ready = a.u64();
    t.pkt = load_packet(a, codec);
    local_out_.push_back(std::move(t));
  }
  rr_ = a.u32();
  occupancy_ = a.u32();
  next_ready_ = 0;  // derived: the first tick after a restore recomputes it
}

}  // namespace glocks::noc
