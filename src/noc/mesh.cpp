#include "noc/mesh.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "noc/fault_domain.hpp"

namespace glocks::noc {

Mesh::Mesh(std::uint32_t num_tiles, std::uint32_t width, NocConfig cfg)
    : width_(width),
      cfg_(cfg),
      nics_(num_tiles),
      tile_seq_(num_tiles, 0) {
  GLOCKS_CHECK(width_ >= 1, "mesh width must be positive");
  const RouterTiming timing{cfg_.router_latency, cfg_.link_latency,
                            cfg_.input_queue_depth};
  occupied_.resize(num_tiles);
  backlogged_.resize(num_tiles);
  routers_.reserve(num_tiles);
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    routers_.push_back(std::make_unique<Router>(
        t % width_, t / width_, width_, timing, stats_, occupied_.word(t),
        common::WordBitset::mask(t)));
  }
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    const std::uint32_t x = t % width_;
    const std::uint32_t y = t / width_;
    auto& r = *routers_[t];
    if (x + 1 < width_ && t + 1 < num_tiles) r.connect(Dir::kEast,
                                                       *routers_[t + 1]);
    if (x > 0) r.connect(Dir::kWest, *routers_[t - 1]);
    if (t + width_ < num_tiles) r.connect(Dir::kSouth, *routers_[t + width_]);
    if (y > 0) r.connect(Dir::kNorth, *routers_[t - width_]);
  }
}

Mesh::~Mesh() = default;

void Mesh::enable_fault_domain(const FaultConfig& cfg) {
  GLOCKS_CHECK(cfg.mesh.enabled, "mesh fault domain enabled without config");
  GLOCKS_CHECK(fault_ == nullptr, "mesh fault domain enabled twice");
  GLOCKS_CHECK(last_tick_ == kNoCycle && in_flight_ == 0,
               "mesh fault domain must be armed before the first tick");
  fault_ = std::make_unique<MeshFaultDomain>(cfg.mesh, cfg.seed, cfg_,
                                             num_tiles(), width_, routers_,
                                             stats_);
  for (auto& r : routers_) r->set_fault_model(fault_.get());
}

fault::FaultStats Mesh::finalize_fault_stats() {
  GLOCKS_CHECK(fault_ != nullptr, "finalize_fault_stats without the domain");
  return fault_->finalize_stats();
}

std::string Mesh::fault_context() const {
  return fault_ == nullptr ? "off" : fault_->context();
}

std::string Mesh::debug_dump() const {
  std::ostringstream oss;
  oss << "  in flight " << in_flight_ << "\n";
  for (std::uint32_t t = 0; t < nics_.size(); ++t) {
    std::size_t backlog = 0;
    for (const auto& outbox : nics_[t].outbox) backlog += outbox.size();
    if (backlog == 0 && routers_[t]->idle()) continue;
    oss << "  tile " << t << ": nic backlog " << backlog
        << ", router occupancy " << routers_[t]->occupancy() << "\n";
  }
  if (fault_ != nullptr) oss << fault_->debug_dump();
  return oss.str();
}

void Mesh::set_sink(CoreId tile, Router::Sink sink) {
  GLOCKS_CHECK(tile < routers_.size(), "sink tile out of range");
  // Wrap the sink so ejection keeps the in-flight census exact — the
  // dormancy decision in tick() depends on it.
  routers_[tile]->set_sink([this, s = std::move(sink)](Packet&& p) {
    --in_flight_;
    s(std::move(p));
  });
}

void Mesh::send(Packet&& p) {
  GLOCKS_CHECK(p.src < nics_.size() && p.dst < nics_.size(),
               "packet endpoints out of range: " << p.src << "->" << p.dst);
  GLOCKS_CHECK(p.src != p.dst,
               "same-tile messages must bypass the mesh (tile " << p.src
                                                                << ")");
  stamp_seq(p);
  ++in_flight_;
  backlogged_.set(p.src);
  auto& nic = nics_[p.src];
  nic.outbox[static_cast<std::size_t>(p.cls)].push_back(std::move(p));
  wake();  // a dormant mesh has new work (no-op when already active)
}

void Mesh::stamp_seq(Packet& p) {
  // Pooled payload nodes are reused, but a Packet's identity is its seq,
  // stamped fresh for every injection — tracing stays unambiguous as
  // long as a stream cannot wrap within a run. Streams are per source
  // tile (tile in the top bits), so tile T's k-th injection carries the
  // same seq however the sends of different tiles interleave.
#ifndef NDEBUG
  GLOCKS_CHECK(tile_seq_[p.src] < (std::uint64_t{1} << 40),
               "Packet::seq stream exhausted for tile " << p.src);
#endif
  p.seq = (static_cast<std::uint64_t>(p.src) << 40) | tile_seq_[p.src]++;
}

void Mesh::send(CoreId src, CoreId dst, MsgClass cls,
                std::uint32_t size_bytes, Cycle /*now*/, void* payload,
                PayloadKind kind) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.cls = cls;
  p.size_bytes = size_bytes;
  p.payload = payload;
  p.kind = kind;
  send(std::move(p));
}

void Mesh::tick(Cycle now) {
  if (last_tick_ != kNoCycle) {
    GLOCKS_CHECK(now > last_tick_, "mesh ticked out of order");
    // Skipped cycles need no repair: an idle router tick has no
    // architectural effect (the round-robin pointer only moves on
    // ready-head cycles), so a dormant span folds to nothing.
  }
  last_tick_ = now;
  // Fault-domain work precedes arbitration: scripted kills and guard
  // progression (ack completions, retransmission watchdogs, link
  // deaths) must be visible to this cycle's router scan. All of it runs
  // here in a fixed order, so faulted runs stay bit-identical across
  // --jobs and restore.
  if (fault_ != nullptr) fault_->advance(now);
  // NICs drain into routers first so an injection made during cycle N-1
  // (endpoint tick) can enter the router fabric at cycle N. Classes
  // drain independently into their own virtual channels. Only NICs with
  // a backlog are visited; the drain sends nothing, so none is added
  // mid-pass.
  backlogged_.for_each([this, now](std::size_t t) {
    bool drained = true;
    for (auto& outbox : nics_[t].outbox) {
      while (!outbox.empty()) {
        if (!routers_[t]->inject(std::move(outbox.front()), now)) break;
        outbox.pop_front();
      }
      drained = drained && outbox.empty();
    }
    if (drained) backlogged_.reset(t);
  });
  // Only occupied routers whose ready bound has come are ticked: any
  // other router tick has no architectural effect. A router that a tick
  // fills above the cursor is still visited this cycle if its new head is
  // due, as in a loop over every tile.
  occupied_.for_each([this, now](std::size_t t) {
    Router& r = *routers_[t];
    if (r.next_ready() <= now) {
      ++router_visits_;
      if (r.tick(now)) ++router_busy_visits_;
    }
    if (r.idle()) occupied_.reset(t);
  });
  // The mesh sleeps through cycles on which it would do nothing. With the
  // fault domain armed it never does: scripted kills and retransmission
  // timers must fire on their exact cycles. A NIC backlog drains as soon
  // as its local queue has room, which has no wake signal.
  if (fault_ != nullptr || !backlogged_.none()) return;
  // An empty fabric sleeps until the next send.
  if (in_flight_ == 0) {
    sleep();
    return;
  }
  // Otherwise sleep until the earliest ready bound. This second pass sees
  // the bounds that routers later in the scan lowered by forwarding into
  // earlier ones; any new send wakes the mesh before then.
  Cycle next = kNoCycle;
  occupied_.for_each([this, &next](std::size_t t) {
    next = std::min(next, routers_[t]->next_ready());
  });
  if (next > now + 1) sleep_until(next);
}

void Mesh::save(ckpt::ArchiveWriter& a,
                const PayloadSaver& save_payload) const {
  for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
    const auto cls = static_cast<MsgClass>(c);
    a.u64(stats_.bytes(cls));
    a.u64(stats_.packets(cls));
    a.u64(stats_.hops(cls));
  }
  for (const std::uint64_t s : tile_seq_) a.u64(s);
  a.u64(last_tick_);
  a.u64(in_flight_);
  a.u64(nics_.size());
  for (const Nic& nic : nics_) {
    for (const auto& outbox : nic.outbox) {
      a.u64(outbox.size());
      for (std::size_t i = 0; i < outbox.size(); ++i) {
        save_packet(a, outbox[i], save_payload);
      }
    }
  }
  for (const auto& r : routers_) r->save(a, save_payload);
  // The fault domain's section is gated on its presence; the run spec in
  // the checkpoint metadata decides it identically on both sides.
  if (fault_ != nullptr) fault_->save(a);
}

std::uint32_t Mesh::hop_distance(CoreId a, CoreId b) const {
  const auto ax = static_cast<int>(a % width_), ay = static_cast<int>(a / width_);
  const auto bx = static_cast<int>(b % width_), by = static_cast<int>(b / width_);
  return static_cast<std::uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

}  // namespace glocks::noc
