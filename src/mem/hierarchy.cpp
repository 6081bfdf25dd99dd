#include "mem/hierarchy.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"

namespace glocks::mem {

Hierarchy::Hierarchy(const CmpConfig& cfg, noc::Mesh& mesh,
                     sim::Engine& engine)
    : engine_(engine),
      noc_cfg_(cfg.noc),
      amap_(cfg.num_cores),
      mesh_(mesh) {
  l1s_.reserve(cfg.num_cores);
  dirs_.reserve(cfg.num_cores);
  sb_stations_.assign(cfg.num_cores, nullptr);
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    l1s_.push_back(
        std::make_unique<L1Cache>(t, cfg.l1, amap_, *this, engine));
    dirs_.push_back(std::make_unique<DirSlice>(t, cfg.num_cores, cfg.l2,
                                               cfg.memory_latency, *this,
                                               memory_, engine));
    sbs_.push_back(std::make_unique<SyncBuffer>(t, *this,
                                                /*processing_latency=*/2));
    qolbs_.push_back(std::make_unique<QolbHome>(t, *this,
                                                /*processing_latency=*/2));
  }
  qolb_stations_.assign(cfg.num_cores, nullptr);
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    mesh_.set_sink(t, [this, t](noc::Packet&& p) {
      GLOCKS_CHECK(p.kind == noc::PayloadKind::kCohMsg && p.payload != nullptr,
                   "mesh delivered a non-coherence payload to the memory "
                   "system");
      // Ownership travelled through the fabric as a tagged raw pointer;
      // re-wrap it into the pool it came from.
      deliver_local(t, msg_pool_.adopt(static_cast<CohMsg*>(p.payload)),
                    engine_.now());
    });
  }
  // Registration order fixes intra-cycle processing order: directories
  // first (they consume requests sent last cycle), then L1s, then the mesh
  // moves packets.
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    engine.add(*dirs_[t], "dir" + std::to_string(t));
  }
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    engine.add(*sbs_[t], "sb" + std::to_string(t));
  }
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    engine.add(*qolbs_[t], "qolb" + std::to_string(t));
  }
  for (CoreId t = 0; t < cfg.num_cores; ++t) {
    engine.add(*l1s_[t], "l1_" + std::to_string(t));
  }
  engine.add(mesh_, "mesh");
}

bool Hierarchy::is_l1_bound(CohType t) {
  switch (t) {
    case CohType::kData:
    case CohType::kAckComplete:
    case CohType::kInv:
    case CohType::kFwdGetS:
    case CohType::kFwdGetX:
    case CohType::kPutAck:
    case CohType::kC2CData:
      return true;
    default:
      return false;
  }
}

void Hierarchy::deliver_local(CoreId tile, CohMsgPtr msg, Cycle ready) {
  switch (msg->type) {
    case CohType::kSbAcquire:
    case CohType::kSbRelease:
      sbs_[tile]->deliver(std::move(msg), ready);
      return;
    case CohType::kSbGrant: {
      SbStation* station = sb_stations_[tile];
      GLOCKS_CHECK(station != nullptr && station->waiting &&
                       station->lock_id == msg->line,
                   "SB grant for lock " << msg->line << " arrived at core "
                                        << tile << " with no waiter");
      station->granted = true;
      if (station->owner != nullptr) station->owner->wake();
      return;
    }
    case CohType::kQolbEnq:
    case CohType::kQolbRelHome:
      qolbs_[tile]->deliver(std::move(msg), ready);
      return;
    case CohType::kQolbGrant:
    case CohType::kQolbSetSucc:
    case CohType::kQolbRelAck:
    case CohType::kQolbRelRetry: {
      QolbStation* station = qolb_stations_[tile];
      GLOCKS_CHECK(station != nullptr,
                   "QOLB message at core " << tile << " with no station");
      qolb_station_on_message(*station, *msg, *this, tile);
      return;
    }
    default:
      break;
  }
  if (is_l1_bound(msg->type)) {
    l1s_[tile]->deliver(std::move(msg), ready);
  } else {
    dirs_[tile]->deliver(std::move(msg), ready);
  }
}

void Hierarchy::send(CoreId src, CoreId dst, CohMsgPtr msg) {
  if (src == dst) {
    // Same-tile L1 <-> L2 slice: no network traversal, 1-cycle bus hop.
    deliver_local(dst, std::move(msg), engine_.now() + 1);
    return;
  }
  const CohType type = msg->type;
  const std::uint32_t size = carries_data(type) ? noc_cfg_.data_msg_bytes
                                                : noc_cfg_.control_msg_bytes;
  // The packet carries the pooled node as a tagged raw pointer; the sink
  // above adopts it back into msg_pool_ on delivery.
  mesh_.send(src, dst, msg_class(type), size, engine_.now(), msg.release(),
             noc::PayloadKind::kCohMsg);
}

Word Hierarchy::coherent_peek(Addr addr) const {
  GLOCKS_CHECK(addr % sizeof(Word) == 0, "unaligned coherent_peek");
  const Addr line = line_of(addr);
  const std::uint32_t wi = line_offset(addr) / sizeof(Word);
  for (const auto& l1 : l1s_) {
    if (const LineData* d = l1->probe_owned_data(line)) return (*d)[wi];
  }
  const auto& home = *dirs_[amap_.home_of_line(line)];
  if (const LineData* d = home.probe_l2_data(line)) return (*d)[wi];
  return memory_.peek(addr);
}

bool Hierarchy::quiescent() const {
  if (!mesh_.idle()) return false;
  for (const auto& d : dirs_) {
    if (!d->quiescent()) return false;
  }
  for (const auto& s : sbs_) {
    if (!s->quiescent()) return false;
  }
  for (const auto& q : qolbs_) {
    if (!q->quiescent()) return false;
  }
  for (const auto& c : l1s_) {
    if (!c->quiet()) return false;
  }
  return true;
}

L1Stats Hierarchy::total_l1_stats() const {
  L1Stats total;
  for (const auto& c : l1s_) {
    const L1Stats& s = c->stats();
    total.loads += s.loads;
    total.stores += s.stores;
    total.amos += s.amos;
    total.hits += s.hits;
    total.misses += s.misses;
    total.upgrades += s.upgrades;
    total.writebacks += s.writebacks;
    total.invalidations_received += s.invalidations_received;
    total.forwards_served += s.forwards_served;
  }
  return total;
}

QolbStats Hierarchy::total_qolb_stats() const {
  QolbStats total;
  for (const auto& q : qolbs_) {
    total.enqueues += q->stats().enqueues;
    total.cold_grants += q->stats().cold_grants;
    total.home_releases += q->stats().home_releases;
  }
  for (const QolbStation* st : qolb_stations_) {
    if (st != nullptr) total.direct_grants += st->direct_grants_sent;
  }
  return total;
}

SbStats Hierarchy::total_sb_stats() const {
  SbStats total;
  for (const auto& s : sbs_) {
    total.acquires += s->stats().acquires;
    total.grants += s->stats().grants;
    total.releases += s->stats().releases;
    total.max_queue = std::max(total.max_queue, s->stats().max_queue);
  }
  return total;
}

DirStats Hierarchy::total_dir_stats() const {
  DirStats total;
  for (const auto& d : dirs_) {
    const DirStats& s = d->stats();
    total.gets += s.gets;
    total.getx += s.getx;
    total.upgrades += s.upgrades;
    total.putm += s.putm;
    total.stale_putm += s.stale_putm;
    total.invalidations_sent += s.invalidations_sent;
    total.forwards_sent += s.forwards_sent;
    total.l2_hits += s.l2_hits;
    total.l2_misses += s.l2_misses;
    total.memory_fetches += s.memory_fetches;
    total.memory_writebacks += s.memory_writebacks;
    total.deferred_requests += s.deferred_requests;
  }
  return total;
}


void Hierarchy::save(ckpt::ArchiveWriter& a) const {
  memory_.save(a);
  for (const auto& l1 : l1s_) l1->save(a);
  for (const auto& d : dirs_) d->save(a);
  for (const auto& sb : sbs_) sb->save(a);
  for (const auto& q : qolbs_) q->save(a);
  // Only the *logical* pool counters reach the archive. The physical
  // ones (heap_allocs / heap_bytes / reuses / high_water) describe this
  // process's slabs, not the simulated machine.
  const CohMsgPool::Stats& ps = msg_pool_.stats();
  a.u64(ps.acquires);
  a.u64(ps.outstanding);
}

void Hierarchy::save_payload(ckpt::ArchiveWriter& a, const noc::Packet& p) {
  switch (p.kind) {
    case noc::PayloadKind::kNone:
      GLOCKS_CHECK(p.payload == nullptr,
                   "untagged packet payload cannot be checkpointed");
      break;
    case noc::PayloadKind::kCohMsg:
      save_coh_msg(a, *static_cast<const CohMsg*>(p.payload));
      break;
  }
}

}  // namespace glocks::mem
