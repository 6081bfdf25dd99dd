#include "harness/cmp_system.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "sim/shard.hpp"

namespace glocks::harness {

namespace {

std::string wait_name(const core::Core& c, const mem::L1Cache& l1) {
  using Wait = core::ThreadContext::Wait;
  if (c.parked()) {
    // A missed unpark shows up here, naming the core and its line.
    const mem::L1Cache::SpinWatch& w = *l1.spin_watch();
    std::ostringstream oss;
    oss << "spin-park line=" << line_of(w.addr)
        << " value=" << c.context().mem_result << " since=" << w.since
        << " period=" << w.period;
    return oss.str();
  }
  switch (c.context().wait) {
    case Wait::kReady: return "ready";
    case Wait::kCompute: return "compute";
    case Wait::kMem: return "mem";
    case Wait::kGlineReq: return "gline-req";
    case Wait::kGlineRel: return "gline-rel";
    case Wait::kGBarrier: return "gbarrier";
    case Wait::kSbWait: return "sb-wait";
    case Wait::kQolbAcq: return "qolb-acq";
    case Wait::kQolbRel: return "qolb-rel";
  }
  return "?";
}

}  // namespace

CmpSystem::CmpSystem(const CmpConfig& cfg)
    : cfg_(cfg),
      mesh_((cfg.validate(), cfg.mesh_tiles()), cfg.mesh_width(), cfg.noc),
      hierarchy_(cfg, mesh_, engine_),  // registers dirs, L1s, then mesh
      census_(cfg.num_cores) {
  // Tick order within a cycle (after the hierarchy's components):
  // cores (may set lock registers), then the G-line network (local
  // controllers observe registers written the same cycle, as co-located
  // hardware flags would), then the census sampler.
  cores_.reserve(cfg.num_cores);
  std::vector<core::LockRegisters*> regs;
  std::vector<core::BarrierRegisters*> barrier_regs;
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    cores_.push_back(std::make_unique<core::Core>(c, cfg.gline.num_glocks,
                                                  cfg.gline.num_gbarriers));
    engine_.add(*cores_.back(), "core" + std::to_string(c));
    regs.push_back(&cores_.back()->lock_registers());
    barrier_regs.push_back(&cores_.back()->barrier_registers());
  }
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    hierarchy_.set_sb_station(c, &cores_[c]->sb_station());
    hierarchy_.set_qolb_station(c, &cores_[c]->qolb_station());
  }
  glines_ = std::make_unique<gline::GlineSystem>(cfg, std::move(regs),
                                                 std::move(barrier_regs));
  engine_.add(*glines_, "glines");
  engine_.add(census_, "census");
  for (auto& c : cores_) {
    c->set_wake_targets(glines_.get(), &census_);
    c->set_finish_listener([this] { ++finished_count_; });
  }
  engine_.set_hang_reporter([this] { return hang_report(); });
  if (cfg_.fault.mesh.enabled) {
    mesh_.enable_fault_domain(cfg_.fault);
    // End-to-end protocol watchdogs at every L1 MSHR. The default
    // timeout is derived from the machine: a worst-case healthy
    // transaction (request + forward + data across the diameter, one
    // memory fetch) plus ARQ stall slack, so it only fires on real
    // pathology — a link dying mid-flight or a partition.
    Cycle e2e = cfg_.fault.mesh.e2e_timeout;
    if (e2e == 0) {
      const Cycle hop = cfg_.noc.router_latency + cfg_.noc.link_latency;
      const Cycle diameter =
          (cfg_.mesh_width() + cfg_.mesh_height()) * hop;
      e2e = 8 * diameter + 2 * cfg_.memory_latency +
            4 * static_cast<Cycle>(cfg_.fault.mesh.backoff_cap);
    }
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      hierarchy_.l1(c).set_e2e_watchdog(
          e2e, cfg_.fault.mesh.e2e_max_retries,
          [this] { return mesh_.fault_context(); });
    }
  }
  set_shards(cfg_.num_shards);
}

void CmpSystem::set_shards(std::uint32_t n) {
  const std::uint32_t shards = std::min(std::max<std::uint32_t>(n, 1),
                                        cfg_.num_cores);
  if (shards <= 1) {
    engine_.set_shard_plan({});
    mesh_.set_sharding(1, {});
    hierarchy_.msg_pool().set_concurrent(false);
    tile_map_.clear();
    profile_pending_ = false;
    profile_warmup_ = false;
    return;
  }
  install_shard_plan(shards);
}

void CmpSystem::set_shard_map(ShardMapPolicy p) {
  const bool pinned = !cfg_.shard_map_pin.empty();
  cfg_.shard_map_pin.clear();
  if (cfg_.shard_map == p && !pinned) return;
  cfg_.shard_map = p;
  // Reinstall between cycles; a no-op on the serial scan (the map only
  // matters when sharded).
  set_shards(engine_.num_shards());
}

std::vector<std::uint32_t> CmpSystem::resolve_tile_map(
    std::uint32_t shards) {
  const std::uint32_t tiles = cfg_.mesh_tiles();
  profile_pending_ = false;
  profile_warmup_ = false;
  if (!cfg_.shard_map_pin.empty()) {
    // A restore pin replays the archived ownership map exactly — but
    // only when it fits this machine and shard count (re-sharding after
    // the byte verification legitimately invalidates it).
    const auto& pin = cfg_.shard_map_pin;
    bool ok = pin.size() == tiles;
    std::vector<std::uint32_t> count(shards, 0);
    if (ok) {
      for (std::uint32_t t = 0; t < tiles; ++t) {
        if (pin[t] >= shards) {
          ok = false;
          break;
        }
        if (t < cfg_.num_cores) ++count[pin[t]];  // core tiles carry slots
      }
    }
    if (ok) {
      for (const std::uint32_t c : count) ok = ok && c > 0;
    }
    if (ok) return pin;
  }
  if (cfg_.shard_map == ShardMapPolicy::kProfile) {
    if (!profiled_map_.empty() && profiled_shards_ == shards) {
      profile_warmup_ = profiled_from_warmup_;
      return profiled_map_;
    }
    if (!cfg_.shard_map_file.empty()) {
      if (auto m = sim::load_shard_map(cfg_.shard_map_file, tiles, shards)) {
        profiled_map_ = std::move(*m);
        profiled_shards_ = shards;
        profiled_from_warmup_ = false;
        return profiled_map_;
      }
    }
    // No usable map yet: warm up on the block split; run() rebalances
    // from the live activity counters after kProfileWarmupCycles.
    profile_pending_ = true;
    return sim::build_shard_map(ShardMapPolicy::kBlock, tiles,
                                cfg_.num_cores, cfg_.mesh_width(), shards);
  }
  return sim::build_shard_map(cfg_.shard_map, tiles, cfg_.num_cores,
                              cfg_.mesh_width(), shards);
}

std::vector<std::uint64_t> CmpSystem::tile_costs() const {
  const std::uint32_t tiles = cfg_.mesh_tiles();
  const std::uint32_t n = cfg_.num_cores;
  std::vector<std::uint64_t> cost(tiles, 0);
  // Slot layout as in install_shard_plan: tile t's engine work is its
  // dir, sb, qolb, and L1 slots plus its core slot; router-only tiles
  // only ever accrue mesh work.
  const auto& slots = engine_.slot_perf();
  if (slots.size() == 5ull * n + 3) {
    for (std::uint32_t t = 0; t < n; ++t) {
      cost[t] = slots[t].ticks + slots[n + t].ticks +
                slots[2ull * n + t].ticks + slots[3ull * n + t].ticks +
                slots[4ull * n + 1 + t].ticks;
    }
  }
  const auto& work = mesh_.tile_work();
  for (std::uint32_t t = 0; t < tiles; ++t) cost[t] += work[t];
  return cost;
}

void CmpSystem::rebalance_from_profile() {
  const std::uint32_t shards = engine_.num_shards();
  profile_pending_ = false;
  if (shards <= 1) return;
  profiled_map_ = sim::build_profile_map(tile_costs(), cfg_.num_cores,
                                         cfg_.mesh_width(), shards);
  profiled_shards_ = shards;
  profiled_from_warmup_ = true;
  if (!cfg_.shard_map_file.empty()) {
    // Best-effort persist so sweeps reuse one profiling pass; a failed
    // write only costs the next run its own warmup.
    sim::save_shard_map(cfg_.shard_map_file, profiled_map_, shards);
  }
  install_shard_plan(shards);
}

void CmpSystem::set_shard_window(std::uint32_t w) {
  if (cfg_.shard_window == w) return;
  cfg_.shard_window = w;
  // Reinstall the plan so the engine/mesh pick the new window mode up;
  // a no-op for the serial scan (the knob only matters when sharded).
  set_shards(engine_.num_shards());
}

void CmpSystem::install_shard_plan(std::uint32_t shards) {
  // Slot layout (fixed by the constructor above and the hierarchy):
  // dirs [0, N), sbs [N, 2N), qolbs [2N, 3N), l1s [3N, 4N), mesh 4N,
  // cores [4N+1, 5N+1), glines 5N+1, census 5N+2. Tile t's components
  // and core all live in one shard (whatever the ownership map says —
  // same-tile delivery bypasses the mesh, so they must share a worker);
  // the mesh is the coordinator (the one component spanning every
  // tile); the G-line network and census resolve at the epoch boundary
  // — which is what keeps the fault injector's pure-hash-of-
  // (seed,wire,cycle) contract intact with no code changes there.
  const std::uint32_t n = cfg_.num_cores;
  const std::size_t expected = 5ull * n + 3;
  GLOCKS_CHECK(engine_.num_slots() == expected,
               "shard plan layout drifted: " << engine_.num_slots()
                                             << " slots, expected "
                                             << expected);
  std::vector<std::uint32_t> tile_shard = resolve_tile_map(shards);
  tile_map_ = tile_shard;
  sim::ShardPlan plan;
  plan.num_shards = shards;
  plan.owner.assign(engine_.num_slots(), sim::ShardPlan::kSequential);
  for (CoreId t = 0; t < n; ++t) {
    const std::uint32_t s = tile_shard[t];  // core t lives on tile t
    plan.owner[t] = s;           // dir
    plan.owner[n + t] = s;       // sb
    plan.owner[2ull * n + t] = s;  // qolb
    plan.owner[3ull * n + t] = s;  // l1
    plan.owner[4ull * n + 1 + t] = s;  // core
  }
  plan.owner[4ull * n] = sim::ShardPlan::kCoordinator;  // mesh
  // glines (5N+1) and census (5N+2) stay kSequential.

  // Multi-cycle lookahead windows need the mesh region layer. They are
  // available whenever the fault domain is off (fault routing is global
  // state the regions cannot partition) and the engine idle-skips
  // (windows are built on local-clock jumps); --shard-window 1 opts a
  // run back into pure per-cycle lockstep.
  const Cycle per_hop = cfg_.noc.router_latency + cfg_.noc.link_latency;
  const bool window_capable =
      cfg_.shard_window != 1 && !cfg_.fault.mesh.enabled &&
      cfg_.engine_mode == EngineMode::kEventDriven && per_hop >= 1;
  plan.window = window_capable ? cfg_.shard_window : 1;
  plan.horizon =
      sim::lookahead_horizon(tile_shard, cfg_.mesh_width(), per_hop);
  if (window_capable) {
    // Region sharding cannot carry analytic express flights; fold any
    // live ones back into router state first (bit-identical either way —
    // that is the express contract).
    mesh_.materialize_expresses(engine_.now());
  }
  mesh_.set_sharding(shards, std::move(tile_shard), window_capable);
  hierarchy_.msg_pool().set_concurrent(true);

  sim::ShardHooks hooks;
  hooks.pre_coordinator = [this] { mesh_.flush_staged(); };
  hooks.post_waves = [this] { mesh_.flush_staged(); };
  if (window_capable) {
    hooks.window_limits = [this](Cycle now) {
      return mesh_.window_limits(now);
    };
    hooks.begin_window = [this](Cycle start, Cycle end) {
      mesh_.begin_window(start, end);
    };
    hooks.tick_region = [this](std::uint32_t shard, Cycle now) {
      mesh_.tick_region(shard, now);
    };
    hooks.region_busy = [this](std::uint32_t shard) {
      return mesh_.region_busy(shard);
    };
    hooks.end_window = [this](Cycle end) { return mesh_.end_window(end); };
    hooks.mem_waiters = [this] {
      for (const auto& c : cores_) {
        if (c->in_memory_wait()) return true;
      }
      return false;
    };
  }
  engine_.set_shard_plan(std::move(plan), std::move(hooks));
}

std::string CmpSystem::hang_report() const {
  std::ostringstream oss;
  const std::uint32_t shards = engine_.num_shards();
  if (shards > 1) {
    oss << "sharded: " << shards << " shards, map "
        << sim::shard_map_name(cfg_.shard_map)
        << (!cfg_.shard_map_pin.empty() ? " (pinned)" : "") << ", epoch "
        << engine_.shard_epoch() << ", barrier clock @" << engine_.now()
        << "\n";
  }
  oss << "cores (wait-state, lock registers):\n";
  for (const auto& c : cores_) {
    oss << "  core " << c->id() << ": ";
    if (shards > 1) {
      // The ACTIVE assignment — under arbitrary maps the stuck tile's
      // owner is not derivable from its id.
      const std::uint32_t s = c->id() < tile_map_.size()
                                  ? tile_map_[c->id()]
                                  : shard_of_core(c->id(), shards);
      oss << "[tile " << c->id() << " -> shard " << s << "] ";
    }
    if (c->finished()) {
      oss << "finished\n";
      continue;
    }
    const auto& ctx = c->context();
    oss << wait_name(*c, hierarchy_.l1(c->id()));
    if (ctx.wait == core::ThreadContext::Wait::kGlineReq ||
        ctx.wait == core::ThreadContext::Wait::kGlineRel) {
      oss << "(glock " << ctx.gline_id << ")";
    }
    oss << " req=[";
    const auto& lr = c->lock_registers();
    for (std::size_t g = 0; g < lr.req.size(); ++g) {
      oss << (g ? "," : "") << (lr.req[g] ? 1 : 0);
    }
    oss << "] rel=[";
    for (std::size_t g = 0; g < lr.rel.size(); ++g) {
      oss << (g ? "," : "") << (lr.rel[g] ? 1 : 0);
    }
    oss << "]\n";
  }
  oss << "G-line lock units:\n" << glines_->debug_dump();
  oss << "L1 MSHRs:\n";
  bool any_mshr = false;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const std::string d = hierarchy_.l1(c).mshr_dump();
    if (d.empty()) continue;
    any_mshr = true;
    oss << "  core " << c << ": " << d << "\n";
  }
  if (!any_mshr) oss << "  (all idle)\n";
  oss << "mesh:\n" << mesh_.debug_dump();
  return oss.str();
}

void CmpSystem::attach_tracer(trace::Tracer& tracer) {
  GLOCKS_CHECK(engine_.num_shards() <= 1,
               "tracing requires --shards 1: trace events are appended "
               "from core ticks, which run on shard workers");
  for (auto& c : cores_) {
    c->context().tracer = &tracer;
    c->context().engine = &engine_;
  }
}

bool CmpSystem::all_threads_finished() const {
  for (const auto& c : cores_) {
    if (!c->finished()) return false;
  }
  return true;
}

Cycle CmpSystem::run() { return run({}, nullptr); }

Cycle CmpSystem::run(const std::vector<Cycle>& pause_at,
                     const std::function<void(Cycle)>& on_pause) {
  std::uint32_t bound = 0;
  for (const auto& c : cores_) {
    if (c->bound()) ++bound;
  }
  const auto done = [this, bound] { return finished_count_ == bound; };
  // Profile warmup: a kProfile machine with no usable map starts on the
  // block split and pauses here, once, to rebalance from the live
  // activity counters. The pause cycle is relative to the run start, so
  // a checkpoint replay (which re-runs the same warmup at the same
  // shard count) reproduces the re-map — and its archive bytes —
  // exactly.
  constexpr Cycle kProfileWarmupCycles = 10000;
  Cycle profile_at = profile_pending_ && engine_.num_shards() > 1
                         ? engine_.now() + kProfileWarmupCycles
                         : kNoCycle;
  Cycle end = 0;
  std::size_t next = 0;
  for (;;) {
    const Cycle ext = next < pause_at.size() ? pause_at[next] : kNoCycle;
    if (ext != kNoCycle && ext <= engine_.now()) {
      ++next;  // stale pause point, already passed
      continue;
    }
    const Cycle stop = std::min(ext, profile_at);
    if (stop == kNoCycle) {
      end = engine_.run_until(done, cfg_.max_cycles);
      break;
    }
    end = engine_.run_until_or_pause(done, cfg_.max_cycles, stop);
    if (done()) break;
    if (profile_at != kNoCycle && engine_.now() >= profile_at) {
      profile_at = kNoCycle;
      rebalance_from_profile();
    }
    if (ext != kNoCycle && engine_.now() >= ext) {
      ++next;
      if (on_pause) on_pause(engine_.now());
      // A pause handler may have re-sharded into kProfile with no map
      // yet (a restore re-mapping the tail): arm a fresh warmup.
      if (profile_pending_ && profile_at == kNoCycle &&
          engine_.num_shards() > 1) {
        profile_at = engine_.now() + kProfileWarmupCycles;
      }
    }
  }
  // Drain writebacks / in-flight protocol messages so post-run memory
  // verification sees settled state. The budget scales with the machine
  // (config-derived round-trip bound) instead of a flat constant.
  engine_.run_until(
      [this] { return hierarchy_.quiescent() && glines_->idle(); },
      engine_.now() + cfg_.effective_drain_budget(), "post-run drain");
  return end;
}

void CmpSystem::save_state(ckpt::ArchiveWriter& a) {
  a.begin_section(ckpt::tags::kEngine);
  engine_.save(a);
  a.end_section();
  a.begin_section(ckpt::tags::kCores);
  a.u32(num_cores());
  a.u32(finished_count_);
  for (const auto& c : cores_) c->save(a);
  a.end_section();
  a.begin_section(ckpt::tags::kGlines);
  glines_->save(a);
  a.end_section();
  a.begin_section(ckpt::tags::kCensus);
  census_.save(a);
  a.end_section();
  a.begin_section(ckpt::tags::kHeap);
  heap_.save(a);
  a.end_section();
  // Mesh before hierarchy: the hierarchy section ends with the message-
  // pool counters, which a load must apply after every pooled payload
  // (mesh packets included) has been re-acquired.
  const noc::PayloadCodec codec = hierarchy_.payload_codec();
  a.begin_section(ckpt::tags::kMesh);
  mesh_.save(a, codec);
  a.end_section();
  a.begin_section(ckpt::tags::kHierarchy);
  hierarchy_.save(a);
  a.end_section();
}

namespace {

void expect_section(ckpt::ArchiveReader& a, std::uint32_t tag,
                    const char* name) {
  if (!a.next_section() || a.section_tag() != tag) {
    throw ckpt::CkptError(
        ckpt::CkptError::Code::kBadSection,
        std::string("checkpoint is missing the ") + name + " section");
  }
}

}  // namespace

void CmpSystem::load_state(ckpt::ArchiveReader& a) {
  expect_section(a, ckpt::tags::kEngine, "engine");
  engine_.load(a);
  expect_section(a, ckpt::tags::kCores, "cores");
  GLOCKS_CHECK(a.u32() == num_cores(), "checkpoint core count mismatch");
  finished_count_ = a.u32();
  for (const auto& c : cores_) c->load(a);
  expect_section(a, ckpt::tags::kGlines, "G-line");
  glines_->load(a);
  expect_section(a, ckpt::tags::kCensus, "census");
  census_.load(a);
  expect_section(a, ckpt::tags::kHeap, "heap");
  heap_.load(a);
  const noc::PayloadCodec codec = hierarchy_.payload_codec();
  expect_section(a, ckpt::tags::kMesh, "mesh");
  mesh_.load(a, codec);
  expect_section(a, ckpt::tags::kHierarchy, "hierarchy");
  hierarchy_.load(a);
}

}  // namespace glocks::harness
