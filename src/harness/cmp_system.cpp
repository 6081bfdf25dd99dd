#include "harness/cmp_system.hpp"

#include <sstream>

#include "common/check.hpp"

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
}

std::string CmpSystem::hang_report() const {
  std::ostringstream oss;
  oss << "cores (wait-state, lock registers):\n";
  for (const auto& c : cores_) {
    oss << "  core " << c->id() << ": ";
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
  Cycle end = 0;
  std::size_t next = 0;
  for (;;) {
    if (next == pause_at.size()) {
      end = engine_.run_until(done, cfg_.max_cycles);
      break;
    }
    const Cycle ext = pause_at[next];
    if (ext <= engine_.now()) {
      ++next;  // stale pause point, already passed
      continue;
    }
    end = engine_.run_until_or_pause(done, cfg_.max_cycles, ext);
    if (done()) break;
    ++next;
    if (on_pause) on_pause(engine_.now());
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
