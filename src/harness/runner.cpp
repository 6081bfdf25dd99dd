#include "harness/runner.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace glocks::harness {

double RunResult::fraction(core::Category c) const {
  const std::uint64_t total = total_thread_cycles();
  if (total == 0) return 0.0;
  return static_cast<double>(
             category_cycles[static_cast<std::size_t>(c)]) /
         static_cast<double>(total);
}

std::uint64_t RunResult::total_thread_cycles() const {
  std::uint64_t t = 0;
  for (auto v : category_cycles) t += v;
  return t;
}

RunResult run_workload(Workload& workload, const RunConfig& cfg) {
  return run_workload(workload, cfg, RunHooks{});
}

RunResult run_workload(Workload& workload, const RunConfig& cfg,
                       const RunHooks& hooks) {
  const perf::WallTimer timer;
  CmpSystem sys(cfg.cmp);
  WorkloadContext ctx(sys, cfg.policy, cfg.seed);

  workload.setup(ctx);
  for (CoreId c = 0; c < sys.num_cores(); ++c) {
    sys.core(c).bind(c, sys.num_cores(), sys.hierarchy().l1(c),
                     [&](core::ThreadApi& api) {
                       return workload.thread_body(api, ctx);
                     });
  }

  // Threads can always read the clock (ThreadApi::now); tracing is the
  // optional part.
  for (CoreId c = 0; c < sys.num_cores(); ++c) {
    sys.core(c).context().engine = &sys.engine();
  }
  if (cfg.tracer != nullptr) sys.attach_tracer(*cfg.tracer);

  RunResult r;
  r.workload = workload.name();
  r.hc_lock_kind = std::string(locks::to_string(cfg.policy.highly_contended));
  r.cycles = sys.run(hooks.pause_at, [&](Cycle at) {
    if (hooks.on_pause) hooks.on_pause(sys, at);
  });
  r.perf = perf::capture(sys.engine(), timer.seconds());
  {
    const auto& ps = sys.hierarchy().msg_pool_stats();
    r.perf.msg.pool_heap_allocs = ps.heap_allocs;
    r.perf.msg.pool_heap_bytes = ps.heap_bytes;
    r.perf.msg.pool_acquires = ps.acquires;
    r.perf.msg.pool_reuses = ps.reuses;
    r.perf.msg.pool_high_water = ps.high_water;
    r.perf.msg.router_visits = sys.mesh().router_visits();
    r.perf.msg.router_busy_visits = sys.mesh().router_busy_visits();
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      const auto& sp = sys.hierarchy().l1(c).spin_stats();
      r.perf.spin.parks += sp.parks;
      r.perf.spin.elided += sp.elided;
      r.perf.spin.unparks_inv += sp.unparks_inv;
      r.perf.spin.unparks_fwd += sp.unparks_fwd;
    }
  }
  workload.verify(ctx);

  for (CoreId c = 0; c < sys.num_cores(); ++c) {
    const core::ThreadContext& t = sys.core(c).context();
    for (std::size_t i = 0; i < core::kNumCategories; ++i) {
      r.category_cycles[i] += t.cycles[i];
    }
    r.uops += t.uops;
    r.gline_spin_cycles += t.gline_spin_cycles;
  }
  r.traffic = sys.mesh().stats();
  r.l1 = sys.hierarchy().total_l1_stats();
  r.dir = sys.hierarchy().total_dir_stats();
  r.gline = sys.glines().total_stats();
  r.fault = sys.glines().finalize_fault_stats();
  if (sys.mesh().fault_domain_enabled()) {
    r.mesh_fault = sys.mesh().finalize_fault_stats();
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      const auto& e = sys.hierarchy().l1(c).e2e_stats();
      r.mesh_fault.e2e_timeouts += e.timeouts;
      r.mesh_fault.e2e_retries += e.retries;
    }
    r.mesh_fault.e2e_dup_drops = r.dir.dup_requests;
  }

  const auto& census = sys.census();
  for (std::size_t i = 0; i < census.num_locks(); ++i) {
    RunResult::LockCensus lc;
    lc.name = census.lock_stats(i).name;
    lc.acquires = census.lock_stats(i).acquires;
    lc.jain_fairness =
        census.lock_stats(i).jain_index(sys.num_cores());
    const auto& by_thread = census.lock_stats(i).acquires_by_thread;
    lc.max_thread_acquires =
        by_thread.empty()
            ? 0
            : *std::max_element(by_thread.begin(), by_thread.end());
    lc.min_thread_acquires =
        by_thread.size() < sys.num_cores()
            ? 0
            : *std::min_element(by_thread.begin(), by_thread.end());
    lc.census = census.histogram(i);
    r.lock_census.push_back(std::move(lc));
  }

  power::ActivityCounts act;
  act.cycles = r.cycles;
  act.num_tiles = sys.num_cores();
  act.uops = r.uops;
  act.busy_cycles = r.category_cycles[0];
  act.stall_cycles = r.total_thread_cycles() - r.category_cycles[0];
  act.gline_spin_cycles = r.gline_spin_cycles;
  act.l1 = r.l1;
  act.dir = r.dir;
  act.noc = r.traffic;
  act.gline = r.gline;
  const power::EnergyModel model(cfg.energy);
  r.energy = model.estimate(act);
  r.ed2p = power::EnergyModel::ed2p(r.energy, r.cycles, cfg.cmp.clock_mhz);
  return r;
}

}  // namespace glocks::harness
