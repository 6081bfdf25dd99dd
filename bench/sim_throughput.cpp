// Simulator-throughput benchmark: times the fig08/fig09 grid (every
// registry workload under MCS and GLock at 32 cores) under the serial
// tick-everything kernel and the event-driven kernel, checks the two
// agree on every headline metric, and reports the wall-clock speedup.
//
//   sim_throughput [--scale X] [--cores N] [--out PATH]
//
// Emits BENCH_sim_throughput.json (or --out) with both modes' SimPerf
// payloads plus the speedup; scripts/bench_throughput.sh and the CI
// perf-smoke job compare that file against the committed baseline with a
// generous tolerance. Runs are strictly sequential so the wall times are
// not polluted by sibling simulations competing for cores.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_support.hpp"
#include "perf/perf.hpp"

namespace {

using namespace glocks;

harness::RunResult run_point(const std::string& workload,
                             locks::LockKind hc, std::uint32_t cores,
                             double scale, EngineMode mode) {
  auto wl = workloads::make_workload(workload, scale);
  harness::RunConfig cfg = bench::paper_config(hc);
  cfg.cmp.num_cores = cores;
  cfg.cmp.engine_mode = mode;
  // Past a 7x7 mesh the flat single-cycle G-line layout is out of reach
  // (max_transmitters_per_line); larger machines use the Section V
  // hierarchical network, as the 256-core tests do.
  if (cores > 49) cfg.cmp.gline.hierarchical = true;
  return harness::run_workload(*wl, cfg);
}

/// The metrics the two kernels must agree on exactly. The full
/// field-by-field contract lives in tests/engine_event_test.cpp; this is
/// the benchmark's own sanity gate so a throughput number can never be
/// reported for a run that diverged.
bool same_results(const harness::RunResult& a,
                  const harness::RunResult& b) {
  return a.cycles == b.cycles && a.uops == b.uops &&
         a.gline_spin_cycles == b.gline_spin_cycles &&
         a.category_cycles == b.category_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::uint32_t cores = 32;
  std::string out_path = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scale" && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (flag == "--cores" && i + 1 < argc) {
      cores = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: sim_throughput [--scale X] [--cores N] "
                   "[--out PATH]\n");
      return 2;
    }
  }

  bench::print_header(
      "Simulator throughput: event-driven kernel vs serial reference");
  std::printf("grid: every registry workload x {MCS, GLock} at %u cores, "
              "scale %.2f\n\n", cores, scale);

  const auto& reg = workloads::registry();
  const locks::LockKind kinds[] = {locks::LockKind::kMcs,
                                   locks::LockKind::kGlock};

  perf::SimPerf serial_agg, event_agg;
  bool identical = true;
  std::printf("%-7s %-5s %10s %10s %8s %6s %8s %9s  %s\n", "bench", "lock",
              "serial_s", "event_s", "speedup", "xhit%", "poolhw",
              "reuse%", "agree");
  for (const auto& entry : reg) {
    for (const auto hc : kinds) {
      const auto s =
          run_point(entry.name, hc, cores, scale, EngineMode::kSerial);
      const auto e = run_point(entry.name, hc, cores, scale,
                               EngineMode::kEventDriven);
      serial_agg.add(s.perf);
      event_agg.add(e.perf);
      const bool agree = same_results(s, e);
      identical = identical && agree;
      const auto& m = e.perf.msg;
      const double reuse_pct =
          m.pool_acquires > 0
              ? 100.0 * static_cast<double>(m.pool_reuses) /
                    static_cast<double>(m.pool_acquires)
              : 0.0;
      std::printf("%-7s %-5s %10.3f %10.3f %7.2fx %5.1f%% %8llu %8.1f%%  "
                  "%s\n",
                  entry.name.c_str(),
                  hc == locks::LockKind::kMcs ? "MCS" : "GL",
                  s.perf.wall_seconds, e.perf.wall_seconds,
                  s.perf.wall_seconds /
                      (e.perf.wall_seconds > 0 ? e.perf.wall_seconds
                                               : 1e-9),
                  100.0 * m.express_hit_rate(),
                  static_cast<unsigned long long>(m.pool_high_water),
                  reuse_pct, agree ? "yes" : "NO — RESULTS DIVERGED");
    }
  }

  const double speedup =
      event_agg.wall_seconds > 0
          ? serial_agg.wall_seconds / event_agg.wall_seconds
          : 0.0;
  std::printf("\nserial: %s", serial_agg.summary().c_str());
  std::printf("event:  %s", event_agg.summary().c_str());
  std::printf("\naggregate speedup: %.2fx  (skip fraction %.1f%%)\n",
              speedup, 100.0 * event_agg.skip_fraction());
  if (!identical) {
    std::printf("ERROR: event kernel diverged from the serial "
                "reference; throughput numbers are void.\n");
  }

  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n";
  json << "  \"bench\": \"sim_throughput\",\n";
  // v3: SimPerf payloads carry aggregated slot totals with the ten
  // hottest slots instead of the full per-slot array.
  json << "  \"format_version\": 3,\n";
  json << "  \"cores\": " << cores << ",\n";
  json << "  \"scale\": " << scale << ",\n";
  json << "  \"grid_points\": " << reg.size() * 2 << ",\n";
  json << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
  json << "  \"speedup\": " << speedup << ",\n";
  // Top-level copy of the event kernel's express hit rate: placed before
  // the nested SimPerf payloads so scripts/bench_throughput.sh's
  // first-match json_field extraction reads this one.
  json << "  \"express_hit_rate\": " << event_agg.msg.express_hit_rate()
       << ",\n";
  json << "  \"serial\": ";
  serial_agg.write_json(json, 2);
  json << ",\n  \"event\": ";
  event_agg.write_json(json, 2);
  json << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return identical ? 0 : 1;
}
