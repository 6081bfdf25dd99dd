#include "noc/fault_domain.hpp"

#include <algorithm>
#include <sstream>

#include "ckpt/archive.hpp"
#include "common/check.hpp"

namespace glocks::noc {

namespace {

/// Maps the mesh sub-config onto the injector's knob names. The injector
/// machinery is domain-agnostic: "stuck" plays the role of a link dying
/// outright, the watchdog knobs drive the link-level ARQ.
FaultConfig injector_view(const MeshFaultConfig& m, std::uint64_t seed) {
  FaultConfig v;
  v.enabled = true;
  // Salt the shared seed so the G-line and mesh domains draw independent
  // fault streams from the same --fault-seed.
  v.seed = seed ^ 0x4D6573684C696E6BULL;  // "MeshLink"
  v.drop_rate = m.drop_rate;
  v.garble_rate = m.garble_rate;
  v.delay_rate = m.delay_rate;
  v.max_delay = m.max_delay;
  v.noise_rate = 0.0;  // no receiver-side noise model for mesh links
  v.stuck_rate = m.dead_rate;
  v.stuck_horizon = m.dead_horizon;
  v.watchdog_timeout = m.retry_timeout;
  v.backoff_cap = m.backoff_cap < m.retry_timeout ? m.retry_timeout
                                                  : m.backoff_cap;
  v.max_retries = m.max_retries;
  return v;
}

char dir_letter(Dir d) {
  switch (d) {
    case Dir::kNorth: return 'N';
    case Dir::kSouth: return 'S';
    case Dir::kEast: return 'E';
    case Dir::kWest: return 'W';
    case Dir::kLocal: break;
  }
  return '?';
}

}  // namespace

MeshFaultDomain::MeshFaultDomain(const MeshFaultConfig& cfg,
                                 std::uint64_t seed, const NocConfig& noc,
                                 std::uint32_t num_tiles, std::uint32_t width,
                                 std::vector<std::unique_ptr<Router>>& routers,
                                 TrafficStats& stats)
    : cfg_(cfg),
      noc_(noc),
      num_tiles_(num_tiles),
      width_(width),
      routers_(routers),
      stats_(stats),
      injector_(injector_view(cfg, seed)),
      links_(static_cast<std::size_t>(num_tiles) * 4),
      guards_(static_cast<std::size_t>(num_tiles) * 4 * kNumMsgClasses),
      kills_(cfg.kills) {
  busy_.resize(guards_.size());
  // Register two injector wires per directed link, tile-major in the Dir
  // enum order — a fixed order, so wire ids (and with them every fate)
  // are a pure function of the machine geometry.
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    const std::uint32_t x = t % width_;
    const std::uint32_t y = t / width_;
    for (std::uint32_t d = 1; d <= 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      Link& l = link(t, dir);
      switch (dir) {
        case Dir::kNorth:
          if (y > 0) { l.exists = true; l.nbr = t - width_; }
          break;
        case Dir::kSouth:
          if (t + width_ < num_tiles_) { l.exists = true; l.nbr = t + width_; }
          break;
        case Dir::kEast:
          if (x + 1 < width_ && t + 1 < num_tiles_) {
            l.exists = true;
            l.nbr = t + 1;
          }
          break;
        case Dir::kWest:
          if (x > 0) { l.exists = true; l.nbr = t - 1; }
          break;
        case Dir::kLocal:
          break;
      }
      if (l.exists) {
        l.data_wire = injector_.register_wire();
        l.ack_wire = injector_.register_wire();
      }
    }
  }
  for (const LinkKill& k : kills_) {
    GLOCKS_CHECK(k.tile < num_tiles_,
                 "mesh:kill tile " << k.tile << " out of range (mesh has "
                                   << num_tiles_ << " tiles)");
    GLOCKS_CHECK(link(k.tile, static_cast<Dir>(k.dir)).exists,
                 "mesh:kill names a non-existent link: tile "
                     << k.tile << " dir "
                     << dir_letter(static_cast<Dir>(k.dir)));
  }
  std::sort(kills_.begin(), kills_.end(),
            [](const LinkKill& a, const LinkKill& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.tile != b.tile) return a.tile < b.tile;
              return a.dir < b.dir;
            });
  // The watchdog floor must cover a worst-case delivered-and-acked round
  // trip (frame crossing + ack return, both maximally delayed), so a
  // successful transfer always beats its own timer and spurious
  // retransmissions cannot occur on a healthy link.
  const Cycle rtt = noc_.router_latency + 2 * noc_.link_latency +
                    2 * static_cast<Cycle>(cfg_.max_delay) + 2;
  retry_base_ = cfg_.retry_timeout > rtt ? cfg_.retry_timeout : rtt;
}

Dir MeshFaultDomain::xy_dir(std::uint32_t tile, std::uint32_t dst) const {
  const std::uint32_t x = tile % width_, y = tile / width_;
  const std::uint32_t dx = dst % width_, dy = dst / width_;
  if (dx > x) return Dir::kEast;
  if (dx < x) return Dir::kWest;
  if (dy > y) return Dir::kSouth;
  if (dy < y) return Dir::kNorth;
  return Dir::kLocal;
}

std::uint32_t MeshFaultDomain::next_hop(std::uint32_t tile,
                                        std::uint32_t dst) {
  if (dst == tile) return static_cast<std::uint32_t>(Dir::kLocal);
  if (deaths_ == 0) return static_cast<std::uint32_t>(xy_dir(tile, dst));
  const std::uint8_t e =
      detour_[static_cast<std::size_t>(tile) * num_tiles_ + dst];
  if (e == kUnreachable) return static_cast<std::uint32_t>(kNumDirs);
  return e;
}

bool MeshFaultDomain::head_locked(std::uint32_t tile, Dir in, MsgClass cls) {
  for (std::uint32_t d = 1; d <= 4; ++d) {
    const Guard& g = guard(tile, static_cast<Dir>(d), cls);
    if (g.busy && !g.delivered && g.in_port == in) return true;
  }
  return false;
}

bool MeshFaultDomain::link_busy(std::uint32_t tile, Dir out, MsgClass cls) {
  return guard(tile, out, cls).busy;
}

Cycle MeshFaultDomain::backoff(std::uint32_t retries) const {
  const std::uint32_t shift = retries < 16 ? retries : 16;
  const Cycle v = retry_base_ << shift;
  const Cycle cap = cfg_.backoff_cap > retry_base_ ? cfg_.backoff_cap
                                                   : retry_base_;
  return v < cap ? v : cap;
}

void MeshFaultDomain::attempt(std::uint32_t tile, Dir out, MsgClass cls,
                              Guard& g, Cycle now) {
  Link& l = link(tile, out);
  const Cycle wire_lat = noc_.router_latency + noc_.link_latency;
  fault::FrameFate fate = injector_.judge_frame(l.data_wire, now);
  if (fate.lost) {
    g.pending.push_back(fate.sender_event);
    g.had_fault = true;
  } else if (fate.garbled) {
    // The frame crossed but fails its checksum: the receiver discards it
    // on arrival and the sender's watchdog drives the retransmission.
    injector_.on_rx_discard(fate.garble_event,
                            now + wire_lat + fate.extra_delay);
    injector_.on_tolerated(fate.delay_event);
    g.had_fault = true;
  } else {
    const Cycle arrival = now + wire_lat + fate.extra_delay;
    if (!g.delivered) {
      Router& src = *routers_[tile];
      const Packet& head = src.peek_head(g.in_port, cls);
      if (out != xy_dir(tile, head.dst)) {
        ++counter(&fault::FaultStats::reroutes);
      }
      Packet p = src.take_head(g.in_port, cls);
      stats_.record_hop(p.cls, p.size_bytes);
      routers_[l.nbr]->accept(opposite(out), std::move(p), arrival);
      g.delivered = true;
    } else {
      // A retransmission whose original already made it across: the
      // receiver's sequence check filters the duplicate.
      ++counter(&fault::FaultStats::duplicate_frames);
    }
    injector_.on_tolerated(fate.delay_event);
    if (fate.extra_delay > 0) g.had_fault = true;
    // The ack leg, judged at the frame's arrival cycle (fates are pure
    // hashes of (wire, cycle), so judging ahead is sound).
    fault::FrameFate ack = injector_.judge_frame(l.ack_wire, arrival);
    if (ack.lost) {
      g.pending.push_back(ack.sender_event);
      g.had_fault = true;
    } else if (ack.garbled) {
      injector_.on_rx_discard(ack.garble_event,
                              arrival + noc_.link_latency + ack.extra_delay);
      injector_.on_tolerated(ack.delay_event);
      g.had_fault = true;
    } else {
      injector_.on_tolerated(ack.delay_event);
      if (ack.extra_delay > 0) g.had_fault = true;
      g.ack_at = arrival + noc_.link_latency + ack.extra_delay;
    }
  }
  g.retry_at = now + backoff(g.retries);
}

void MeshFaultDomain::start_transfer(std::uint32_t tile, Dir out, Dir in,
                                     MsgClass cls, Cycle now) {
  Link& l = link(tile, out);
  GLOCKS_CHECK(l.exists && !l.dead,
               "guarded transfer on a missing/dead link: tile "
                   << tile << " dir " << dir_letter(out));
  Guard& g = guard(tile, out, cls);
  GLOCKS_CHECK(!g.busy, "guarded transfer started on a busy link guard");
  g.busy = true;
  g.in_port = in;
  busy_.set(guard_index(tile, out, cls));
  attempt(tile, out, cls, g, now);
}

void MeshFaultDomain::advance(Cycle now) {
  while (next_kill_ < kills_.size() && kills_[next_kill_].at <= now) {
    const LinkKill& k = kills_[next_kill_++];
    kill_link(k.tile, static_cast<Dir>(k.dir), now);
  }
  // Busy guards in index order, which is (tile, dir, class) order. A
  // guard on a dead link is never busy: kill_link clears them, and the
  // scan re-reads the current word, so guards it clears are skipped.
  busy_.for_each([this, now](std::size_t gi) {
    const auto t = static_cast<std::uint32_t>(gi / (4 * kNumMsgClasses));
    const Dir dir = static_cast<Dir>(gi / kNumMsgClasses % 4 + 1);
    const auto cls = static_cast<MsgClass>(gi % kNumMsgClasses);
    Guard& g = guards_[gi];
    if (g.ack_at != kNoCycle && g.ack_at <= now) {
      // Acknowledged: the transfer is complete. Events still pending
      // here were superseded along the way (a drop whose later
      // duplicate carried the day): absorbed, not detected.
      for (std::int32_t ev : g.pending) injector_.on_tolerated(ev);
      g = Guard{};
      busy_.reset(gi);
      return;
    }
    if (g.retry_at > now) return;
    // Watchdog fired. An undelivered frame needs downstream room to
    // retransmit into; without it, hold the timer and re-check next
    // cycle (the mesh never sleeps while the domain is enabled).
    if (!g.delivered &&
        !routers_[link(t, dir).nbr]->can_accept(opposite(dir), cls)) {
      return;
    }
    ++counter(&fault::FaultStats::watchdog_timeouts);
    if (g.pending.empty() && !g.had_fault) {
      ++counter(&fault::FaultStats::spurious_retransmissions);
    }
    if (!g.pending.empty()) {
      injector_.on_detected(g.pending, now);
      g.pending.clear();
    }
    g.had_fault = false;
    ++g.retries;
    if (g.retries > cfg_.max_retries) {
      kill_link(t, dir, now);  // clears every guard on this link
      return;
    }
    ++counter(&fault::FaultStats::retransmissions);
    attempt(t, dir, cls, g, now);
  });
}

void MeshFaultDomain::kill_link(std::uint32_t tile, Dir d, Cycle now) {
  Link& l = link(tile, d);
  GLOCKS_CHECK(l.exists, "kill on a non-existent link: tile "
                             << tile << " dir " << dir_letter(d));
  if (l.dead) return;  // scripted kill raced an ARQ-declared death
  l.dead = true;
  ++deaths_;
  ++counter(&fault::FaultStats::link_failures);
  injector_.on_wire_dead(l.data_wire, now);
  injector_.on_wire_dead(l.ack_wire, now);
  for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
    Guard& g = guard(tile, d, static_cast<MsgClass>(c));
    if (g.busy && !g.pending.empty()) injector_.on_detected(g.pending, now);
    // An undelivered frame stays at its FIFO head; clearing the guard
    // unlocks it and the next arbitration re-routes it via the detour
    // table. A delivered-but-unacked frame already lives downstream.
    g = Guard{};
    busy_.reset(guard_index(tile, d, static_cast<MsgClass>(c)));
  }
  recompute_detours();
}

void MeshFaultDomain::recompute_detours() {
  detour_.assign(static_cast<std::size_t>(num_tiles_) * num_tiles_,
                 kUnreachable);
  constexpr std::uint32_t kInf = 0xFFFFFFFFu;
  constexpr Dir kOrder[4] = {Dir::kEast, Dir::kWest, Dir::kSouth,
                             Dir::kNorth};
  // Arbitrary shortest-path detours abandon XY's turn restrictions, and
  // with per-class stop-and-wait guards a cyclic channel dependency
  // wedges a faulted-but-connected mesh for good. Routes are therefore
  // constrained to the up*/down* turn model (Autonet): tiles are totally
  // ordered by (BFS level from the component's lowest-id tile, tile id),
  // every surviving edge points "up" toward its lower-ordered end, and a
  // legal route climbs zero or more up edges, then descends zero or more
  // down edges, never turning up again. Up-only dependency chains
  // strictly decrease the order, down-only chains strictly increase it,
  // and the down->up turn is forbidden, so no dependency cycle exists.
  //
  // An edge is usable only when the directed links of BOTH directions
  // survive: up*/down* traverses edges both ways, so a half-dead pair
  // is retired whole (conservative: a one-way-only path reads as a
  // partition instead of a route).
  auto edge_alive = [&](std::uint32_t t, Dir d) -> bool {
    const Link& f = link(t, d);
    if (!f.exists || f.dead) return false;
    const Link& b = link(f.nbr, opposite(d));
    return b.exists && !b.dead;
  };

  std::vector<std::uint32_t> level(num_tiles_, kInf);
  std::vector<std::uint32_t> q;
  q.reserve(num_tiles_);
  for (std::uint32_t root = 0; root < num_tiles_; ++root) {
    if (level[root] != kInf) continue;
    level[root] = 0;
    q.clear();
    q.push_back(root);
    for (std::size_t head = 0; head < q.size(); ++head) {
      const std::uint32_t v = q[head];
      for (Dir d : kOrder) {
        if (!edge_alive(v, d)) continue;
        const std::uint32_t n = link(v, d).nbr;
        if (level[n] != kInf) continue;
        level[n] = level[v] + 1;
        q.push_back(n);
      }
    }
  }
  // a strictly closer to the root than b (ties by id keep it total).
  auto above = [&](std::uint32_t a, std::uint32_t b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  };
  // Tiles in root-most-first order; up neighbors always precede a tile.
  std::vector<std::uint32_t> order(num_tiles_);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return above(a, b); });

  std::vector<std::uint32_t> ddist(num_tiles_);
  std::vector<std::uint32_t> udist(num_tiles_);
  for (std::uint32_t dst = 0; dst < num_tiles_; ++dst) {
    // ddist[x]: shortest down-only path x -> dst (reverse BFS from dst
    // over down edges). The root's down-cone spans its whole component
    // (every BFS-tree edge points down from parent to child).
    std::fill(ddist.begin(), ddist.end(), kInf);
    ddist[dst] = 0;
    q.clear();
    q.push_back(dst);
    for (std::size_t head = 0; head < q.size(); ++head) {
      const std::uint32_t v = q[head];
      for (Dir d : kOrder) {
        if (!edge_alive(v, d)) continue;
        const std::uint32_t n = link(v, d).nbr;
        if (!above(n, v) || ddist[n] != kInf) continue;
        ddist[n] = ddist[v] + 1;
        q.push_back(n);
      }
    }
    // udist[x]: up hops to the nearest tile whose down-cone holds dst.
    // Up neighbors sit strictly earlier in the order, so one pass does.
    for (const std::uint32_t x : order) {
      if (ddist[x] != kInf) {
        udist[x] = 0;
        continue;
      }
      udist[x] = kInf;
      for (Dir d : kOrder) {
        if (!edge_alive(x, d)) continue;
        const std::uint32_t n = link(x, d).nbr;
        if (!above(n, x)) continue;
        if (udist[n] != kInf && udist[n] + 1 < udist[x]) {
          udist[x] = udist[n] + 1;
        }
      }
    }
    // Next hops. A tile descends as soon as dst is downhill-reachable;
    // the rule is suffix-closed (every down hop lands on a tile that
    // also descends), so a pure (tile, dst) table keeps every realized
    // path legal.
    for (std::uint32_t t = 0; t < num_tiles_; ++t) {
      if (t == dst) continue;
      std::uint8_t hop = kUnreachable;
      if (ddist[t] != kInf) {
        for (Dir d : kOrder) {
          if (!edge_alive(t, d)) continue;
          const std::uint32_t n = link(t, d).nbr;
          if (above(t, n) && ddist[n] + 1 == ddist[t]) {
            hop = static_cast<std::uint8_t>(d);
            break;
          }
        }
      } else if (udist[t] != kInf) {
        for (Dir d : kOrder) {
          if (!edge_alive(t, d)) continue;
          const std::uint32_t n = link(t, d).nbr;
          if (above(n, t) && udist[n] + 1 == udist[t]) {
            hop = static_cast<std::uint8_t>(d);
            break;
          }
        }
      }
      detour_[static_cast<std::size_t>(t) * num_tiles_ + dst] = hop;
    }
  }
}

fault::FaultStats MeshFaultDomain::finalize_stats() {
  injector_.finalize();
  return injector_.stats();
}

std::string MeshFaultDomain::context() const {
  if (deaths_ == 0) return "none";
  std::ostringstream oss;
  bool first = true;
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    for (std::uint32_t d = 1; d <= 4; ++d) {
      const Link& l = link(t, static_cast<Dir>(d));
      if (!l.exists || !l.dead) continue;
      if (!first) oss << ", ";
      first = false;
      oss << t << '-' << dir_letter(static_cast<Dir>(d)) << "->" << l.nbr;
    }
  }
  return oss.str();
}

std::string MeshFaultDomain::debug_dump() const {
  std::ostringstream oss;
  oss << "  dead links (" << deaths_ << "): " << context() << "\n";
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    for (std::uint32_t d = 1; d <= 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        const Guard& g = guard(t, dir, static_cast<MsgClass>(c));
        if (!g.busy) continue;
        oss << "  guard " << t << '-' << dir_letter(dir) << ' '
            << to_string(static_cast<MsgClass>(c))
            << ": delivered=" << (g.delivered ? 1 : 0)
            << " retries=" << g.retries << " retry_at=" << g.retry_at
            << " ack_at=";
        if (g.ack_at == kNoCycle) {
          oss << '-';
        } else {
          oss << g.ack_at;
        }
        oss << "\n";
      }
    }
  }
  return oss.str();
}

void MeshFaultDomain::save(ckpt::ArchiveWriter& a) const {
  injector_.save(a);
  a.u64(deaths_);
  for (const Link& l : links_) a.b(l.dead);
  a.u64(next_kill_);
  for (const Guard& g : guards_) {
    a.b(g.busy);
    a.b(g.delivered);
    a.b(g.had_fault);
    a.u8(static_cast<std::uint8_t>(g.in_port));
    a.u64(g.ack_at);
    a.u64(g.retry_at);
    a.u32(g.retries);
    a.u32(static_cast<std::uint32_t>(g.pending.size()));
    for (std::int32_t ev : g.pending) a.i64(ev);
  }
}

void MeshFaultDomain::load(ckpt::ArchiveReader& a) {
  injector_.load(a);
  deaths_ = a.u64();
  for (Link& l : links_) l.dead = a.b();
  next_kill_ = a.u64();
  for (std::size_t gi = 0; gi < guards_.size(); ++gi) {
    Guard& g = guards_[gi];
    g.busy = a.b();
    busy_.assign(gi, g.busy);
    g.delivered = a.b();
    g.had_fault = a.b();
    g.in_port = static_cast<Dir>(a.u8());
    g.ack_at = a.u64();
    g.retry_at = a.u64();
    g.retries = a.u32();
    g.pending.clear();
    const std::uint32_t n = a.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      g.pending.push_back(static_cast<std::int32_t>(a.i64()));
    }
  }
  if (deaths_ > 0) recompute_detours();
}

}  // namespace glocks::noc
