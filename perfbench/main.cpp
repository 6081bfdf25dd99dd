// perfbench: the simulator's end-to-end benchmark. One invocation runs one
// workload as a closed loop (the next simulation starts when the previous
// one has finished) for a fixed host-time budget, checks every
// simulation's output, and prints one JSON result line. The traced mode
// runs the same loop with spans recorded around each library call plus
// the isolated component drivers, and reports per-layer metrics instead.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//   perfbench --self-test
//
// Run from the repository root, where perfbench/reference_digests.txt is.
// See README.md in this directory for the workloads, the metrics and how
// to read a traced run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "drivers.hpp"
#include "exec/parallel_for.hpp"
#include "exec/sweep.hpp"
#include "fault/fault.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "json_flat.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workloads/registry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {
namespace {

using glocks::locks::LockKind;

/// A run at seed n simulates the inputs of seeds n .. n+kSeedsPerRun-1,
/// one per pass in rotation. Only QSORT's input depends on the seed, and
/// its run time swings by a fifth between seeds; rotating four inputs per
/// run keeps the reported medians from following a single input.
constexpr std::uint64_t kSeedsPerRun = 4;
/// The seed of the run the reference digests were recorded from
/// (RunConfig's default): they cover the seeds that run simulates.
constexpr std::uint64_t kReferenceSeed = 1;
constexpr const char* kReferencesPath = "perfbench/reference_digests.txt";
/// Fault plan armed on every point of the sweep-faulted grid.
constexpr const char* kSweepFaults =
    "drop=0.001,noise=0.0001,mesh:rate=0.0005";
/// Input scales (registry `scale`): small enough that a run of a few tens
/// of seconds repeats every point several times, so medians are steady.
constexpr double kPaperScale = 0.25;
constexpr double kScale256 = 0.1;
constexpr double kSweepScale = 0.1;
/// Setup probes per grid point; setup_s is the median round.
constexpr int kSetupRounds = 9;
/// Host seconds each component driver runs in the traced mode.
constexpr double kDriverBudgetS = 0.3;

struct SimPoint {
  std::string workload;
  LockKind lock;
  std::uint32_t cores;
  double scale;
  std::string id() const {
    return workload + "/" + std::string(glocks::locks::to_string(lock)) +
           "/" + std::to_string(cores);
  }
};

struct WorkloadDef {
  std::string name;
  std::vector<SimPoint> points;  ///< empty for the sweep
  std::uint32_t machine_cores;   ///< machine size the drivers model
};

std::vector<WorkloadDef> workload_defs() {
  std::vector<WorkloadDef> defs;
  WorkloadDef paper{"paper32", {}, 32};
  for (const auto& e : glocks::workloads::registry()) {
    for (const LockKind k : {LockKind::kMcs, LockKind::kGlock}) {
      paper.points.push_back({e.name, k, 32, kPaperScale});
    }
  }
  defs.push_back(paper);
  WorkloadDef mcs{"mcs256", {}, 256};
  for (const char* w : {"SCTR", "RAYTR"}) {
    mcs.points.push_back({w, LockKind::kMcs, 256, kScale256});
  }
  defs.push_back(mcs);
  WorkloadDef glock{"glock256", {}, 256};
  for (const char* w : {"SCTR", "RAYTR", "QSORT"}) {
    glock.points.push_back({w, LockKind::kGlock, 256, kScale256});
  }
  defs.push_back(glock);
  defs.push_back({"sweep-faulted", {}, 32});
  return defs;
}

/// The sweep's worker count: the host's threads less one, at most 4. The
/// spare thread keeps the benchmark's own main thread and the rest of the
/// host off the workers; on a 4-thread host, six runs at 4 jobs spread
/// 11% against 6% at 3.
unsigned sweep_jobs() {
  const unsigned threads = std::thread::hardware_concurrency();
  return std::clamp(threads > 1 ? threads - 1 : 1u, 1u, 4u);
}

glocks::exec::SweepSpec sweep_spec(std::uint64_t seed) {
  glocks::exec::SweepSpec spec;
  // Longest first, so the job pool's tail is short jobs: with QSORT last,
  // one slow QSORT input alone set the pass time.
  spec.workloads = {"QSORT", "PRCO", "SCTR", "RAYTR"};
  spec.lock_kinds = {LockKind::kMcs, LockKind::kGlock};
  spec.core_counts = {16, 32};
  spec.seeds = {seed, seed + 1};
  spec.scale = kSweepScale;
  spec.jobs = sweep_jobs();
  spec.fault = glocks::fault::parse_fault_spec(kSweepFaults);
  return spec;
}

/// One entry per sweep row, in the sweep's grid order (workload, lock,
/// cores, seed), with the seed each row runs at.
std::vector<std::pair<SimPoint, std::uint64_t>> sweep_points(
    const glocks::exec::SweepSpec& spec) {
  std::vector<std::pair<SimPoint, std::uint64_t>> out;
  for (const auto& w : spec.workloads) {
    for (const LockKind k : spec.lock_kinds) {
      for (const std::uint32_t c : spec.core_counts) {
        for (const std::uint64_t s : spec.seeds) {
          out.push_back({{w, k, c, spec.scale}, s});
        }
      }
    }
  }
  return out;
}

glocks::harness::RunConfig make_config(const SimPoint& p,
                                       std::uint64_t seed) {
  glocks::harness::RunConfig cfg;
  cfg.policy.highly_contended = p.lock;
  cfg.policy.regular = LockKind::kTatas;
  cfg.cmp.num_cores = p.cores;
  // The flat G-line network reaches a 7x7 mesh at most; larger machines
  // use the Section V hierarchical network.
  cfg.cmp.gline.hierarchical = p.cores > 49;
  cfg.seed = seed;
  return cfg;
}

/// The configuration run_sweep gives grid point `p` at `seed`: the sweep's
/// fault plan with the point's own injector seed.
glocks::harness::RunConfig sweep_config(const glocks::exec::SweepSpec& spec,
                                        const SimPoint& p,
                                        std::uint64_t seed) {
  glocks::harness::RunConfig cfg = make_config(p, seed);
  cfg.cmp.fault = spec.fault;
  cfg.cmp.fault.seed = spec.fault.seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  return cfg;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Slot names are a component class plus a tile number ("core12",
/// "l1_3", "dir5"); "mesh", "glines" and "census" have none.
std::string slot_class(const std::string& name) {
  std::size_t n = name.size();
  while (n > 0 && name[n - 1] >= '0' && name[n - 1] <= '9') --n;
  return name.substr(0, n);
}

/// Thrown from the pause hook to end a setup probe at cycle 1.
struct PauseReached {};

/// Host seconds to build the workload and run run_workload up to the
/// pause at cycle 1 (machine build plus workload bind).
double setup_probe(const SimPoint& p, const glocks::harness::RunConfig& cfg,
                   SpanLog& log, std::int32_t parent) {
  const ScopedSpan span(log, "setup_probe", parent);
  const double t0 = now_s();
  auto wl = glocks::workloads::make_workload(p.workload, p.scale);
  glocks::harness::RunHooks hooks;
  hooks.pause_at = {1};
  hooks.on_pause = [](glocks::harness::CmpSystem&, glocks::Cycle) {
    throw PauseReached{};
  };
  try {
    glocks::harness::run_workload(*wl, cfg, hooks);
  } catch (const PauseReached&) {
  }
  return now_s() - t0;
}

/// One simulation's measurements.
struct SimSample {
  bool ok = false;
  std::string error;
  std::string digest;   ///< of the write_json report bytes
  std::string csv_row;  ///< the sweep row (sweep points only)
  double make_s = 0, setup_s = 0, run_s = 0, report_s = 0;
  FlatJson counters;    ///< report.*, perf.* and slot.* counters
  double wall_s() const { return make_s + setup_s + run_s + report_s; }
};

/// Runs one simulation: make_workload, run_workload (split into setup and
/// run phases by a pause at cycle 1; a pause at cycle 0 would be skipped
/// as already passed) and the report writer. The report is the JSON
/// document, or for a sweep point the CSV row run_sweep would emit.
SimSample run_sim(const SimPoint& p, const glocks::harness::RunConfig& cfg,
                  bool sweep_row, SpanLog& log, std::int32_t parent,
                  std::int64_t sim_id) {
  SimSample s;
  const ScopedSpan sim_span(log, "sim", parent, sim_id);
  try {
    const double t0 = now_s();
    std::unique_ptr<glocks::harness::Workload> wl;
    {
      const ScopedSpan span(log, "make_workload", sim_span.id(), sim_id);
      wl = glocks::workloads::make_workload(p.workload, p.scale);
    }
    const double t1 = now_s();
    double t_pause = -1;
    std::optional<ScopedSpan> setup_span, run_span;
    setup_span.emplace(log, "run_workload.setup", sim_span.id(), sim_id);
    glocks::harness::RunHooks hooks;
    hooks.pause_at = {1};
    hooks.on_pause = [&](glocks::harness::CmpSystem&, glocks::Cycle) {
      t_pause = now_s();
      setup_span.reset();
      run_span.emplace(log, "run_workload.run", sim_span.id(), sim_id);
    };
    const glocks::harness::RunResult r =
        glocks::harness::run_workload(*wl, cfg, hooks);
    const double t2 = now_s();
    setup_span.reset();
    run_span.reset();
    if (t_pause < 0) t_pause = t2;

    std::string report;
    {
      const ScopedSpan span(log, "report", sim_span.id(), sim_id);
      if (sweep_row) {
        std::ostringstream row;
        row << p.cores << ',' << cfg.seed << ',';
        glocks::harness::write_csv_row(r, row, cfg.cmp.fault.enabled,
                                       cfg.cmp.fault.mesh.enabled);
        s.csv_row = row.str();
      } else {
        std::ostringstream os;
        glocks::harness::write_json(r, os);
        report = os.str();
      }
    }
    const double t3 = now_s();
    if (sweep_row) {
      std::ostringstream os;
      glocks::harness::write_json(r, os);
      report = os.str();
    }
    s.make_s = t1 - t0;
    s.setup_s = t_pause - t1;
    s.run_s = t2 - t_pause;
    s.report_s = t3 - t2;
    s.digest = fnv1a_hex(report);

    std::ostringstream perf;
    r.perf.write_json(perf);
    for (const auto& [k, v] : flatten_json(report)) s.counters["report." + k] = v;
    for (const auto& [k, v] : flatten_json(perf.str())) s.counters["perf." + k] = v;
    for (const auto& slot : r.perf.slots) {
      s.counters["slot." + slot_class(slot.name)] +=
          static_cast<double>(slot.ticks);
    }
    // Component-ticks a cycle-by-cycle kernel would have made, for the
    // skip fraction summed over simulations.
    const FlatJson& c = s.counters;
    const auto get = [&](const char* k) {
      const auto it = c.find(k);
      return it == c.end() ? 0.0 : it->second;
    };
    s.counters["derived.tick_obligation"] =
        get("perf.slot_count") * (get("perf.engine.cycles_stepped") +
                                  get("perf.engine.cycles_skipped"));
    s.ok = true;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  return s;
}

/// The correctness gate on report digests. A digest must equal the one
/// recorded for (workload, point, seed) wherever a reference exists, and
/// a run at kReferenceSeed, which simulates exactly the recorded seeds,
/// must find one for every simulation. At every seed, repeats of a point
/// within one run must agree.
class Gate {
 public:
  Gate(std::map<std::string, std::string> reference, bool require_reference)
      : reference_(std::move(reference)),
        require_reference_(require_reference) {}

  /// `key` is "<workload> <point>". Empty when `digest` passes, else the
  /// reason it fails.
  std::string check(const std::string& key, std::uint64_t seed,
                    const std::string& digest) {
    const std::string full = key + " " + std::to_string(seed);
    const auto ref = reference_.find(full);
    if (ref != reference_.end()) {
      if (ref->second != digest) {
        return full + ": digest " + digest + " != reference " + ref->second;
      }
    } else if (require_reference_) {
      return "no reference digest for " + full;
    }
    const auto [it, fresh] = first_.emplace(full, digest);
    if (!fresh && it->second != digest) {
      return full + ": digest " + digest + " != earlier repeat " +
             it->second;
    }
    return "";
  }

 private:
  std::map<std::string, std::string> reference_;
  bool require_reference_;
  std::map<std::string, std::string> first_;
};

/// Reads "<workload> <point> <seed> <digest>" lines ('#' starts a comment).
std::map<std::string, std::string> load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::string> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, point, seed, digest;
    if (!(ls >> workload >> point >> seed >> digest)) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    ref[workload + " " + point + " " + seed] = digest;
  }
  return ref;
}

/// Samples of one quantity grouped by the simulation they measured, as
/// identified by its output digest: seeds that leave a workload's input
/// unchanged give one group, QSORT gives one per seed.
class GroupedSamples {
 public:
  void add(const std::string& digest, double v) { groups_[digest].push_back(v); }
  /// The mean over groups of each group's median, so a run weighs its
  /// distinct simulations equally however many repeats each got (0 when
  /// empty).
  double value() const {
    if (groups_.empty()) return 0.0;
    double sum = 0;
    for (const auto& [digest, xs] : groups_) sum += median(xs);
    return sum / static_cast<double>(groups_.size());
  }
  /// The median of one group (0 when it has no samples).
  double at(const std::string& digest) const {
    const auto it = groups_.find(digest);
    return it == groups_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> groups_;
};

/// Samples of one grid point across the run; counters of the first one.
struct PointStats {
  GroupedSamples wall, run, make, report, mcps;
  FlatJson counters;
  std::string first_digest;
  bool have_counters = false;

  void add(const SimSample& s) {
    wall.add(s.digest, s.wall_s());
    run.add(s.digest, s.run_s);
    make.add(s.digest, s.make_s);
    report.add(s.digest, s.report_s);
    const auto c = s.counters.find("perf.sim_cycles");
    if (c != s.counters.end() && s.run_s > 0) {
      mcps.add(s.digest, c->second / s.run_s / 1e6);
    }
    if (!have_counters) {
      counters = s.counters;
      first_digest = s.digest;
      have_counters = true;
    }
  }
};

using Metrics = std::map<std::string, double>;

void add_counters(FlatJson& sum, const FlatJson& c) {
  for (const auto& [k, v] : c) sum[k] += v;
}

/// Per-layer metrics from counters summed over one pass of the workload
/// and the timings of the same simulations. A counter the library no
/// longer prints leaves its metric out.
void layer_metrics(const FlatJson& c, double run_s, double make_s,
                   double report_s, bool faulted, Metrics& m) {
  const auto get = [&](const std::string& key) -> std::optional<double> {
    const auto it = c.find(key);
    if (it == c.end()) return std::nullopt;
    return it->second;
  };
  const auto put = [&](const char* name, const std::string& key) {
    if (const auto v = get(key)) m[name] = *v;
  };
  put("sim.ticks_executed", "perf.engine.ticks_executed");
  put("sim.wakes_scheduled", "perf.engine.wakes_scheduled");
  put("sim.cycles_stepped", "perf.engine.cycles_stepped");
  put("sim.clock_jumps", "perf.engine.clock_jumps");
  const auto ticks = get("perf.engine.ticks_executed");
  const auto stepped = get("perf.engine.cycles_stepped");
  const auto obligation = get("derived.tick_obligation");
  if (ticks && *ticks > 0) m["sim.host_ns_per_tick"] = run_s * 1e9 / *ticks;
  if (stepped && *stepped > 0) {
    m["sim.host_us_per_stepped_cycle"] = run_s * 1e6 / *stepped;
  }
  if (ticks && obligation && *obligation > 0) {
    m["sim.skip_fraction"] = 1.0 - *ticks / *obligation;
  }
  put("core.slot_ticks", "slot.core");
  put("core.uops", "report.uops");
  put("mem.l1_slot_ticks", "slot.l1_");
  put("mem.l1_accesses", "report.l1.accesses");
  put("mem.l1_misses", "report.l1.misses");
  put("mem.dir_slot_ticks", "slot.dir");
  put("mem.dir_l2_accesses", "report.directory.l2_accesses");
  put("mem.pool_acquires", "perf.msg_path.pool_acquires");
  put("noc.mesh_slot_ticks", "slot.mesh");
  put("noc.traffic_bytes", "report.traffic.total");
  if (const auto hits = get("perf.msg_path.express_hits")) {
    const double tries = *hits +
                         get("perf.msg_path.express_declined").value_or(0) +
                         get("perf.msg_path.express_materialized").value_or(0);
    m["noc.express_hit_rate"] = tries > 0 ? *hits / tries : 0.0;
  }
  put("gline.slot_ticks", "slot.glines");
  put("gline.signals", "report.gline.signals");
  put("gline.grants", "report.gline.grants");
  put("census.slot_ticks", "slot.census");
  // "report.locks.<i>.acquires", one per lock.
  std::optional<double> acquires;
  for (const auto& [k, v] : c) {
    if (k.rfind("report.locks.", 0) == 0 && k.size() > 9 &&
        k.compare(k.size() - 9, 9, ".acquires") == 0) {
      acquires = acquires.value_or(0) + v;
    }
  }
  if (acquires) m["locks.acquires"] = *acquires;
  m["workloads.make_s"] = make_s;
  m["harness.report_s"] = report_s;
  // A clean run's report has no fault blocks: its fault counters are 0.
  const auto fault = [&](const char* name, const std::string& key) {
    if (const auto v = get(key)) {
      m[name] = *v;
    } else if (!faulted) {
      m[name] = 0.0;
    }
  };
  fault("fault.retransmissions", "report.fault.retransmissions");
  fault("fault.demotions", "report.fault.fallback_demotions");
  fault("fault.mesh_retransmissions", "report.mesh_fault.retransmissions");
  fault("fault.e2e_retries", "report.mesh_fault.e2e_retries");
}

/// Mean absolute error, in percentage points, of the six GLock-vs-MCS
/// averages of Figures 8-10 (microbenchmarks / applications) against the
/// paper's values (EXPERIMENTS.md). Needs the first-pass counters of
/// every paper32 point.
std::optional<double> paper_error_pp(const WorkloadDef& def,
                                     const std::vector<PointStats>& stats) {
  struct Fig {
    const char* key;
    double paper_m, paper_a;
  };
  const Fig figs[] = {{"report.cycles", 0.58, 0.86},
                      {"report.traffic.total", 0.24, 0.77},
                      {"report.ed2p", 0.22, 0.72}};
  const auto& reg = glocks::workloads::registry();
  double err = 0;
  for (const Fig& f : figs) {
    double sum_m = 0, sum_a = 0;
    int n_m = 0, n_a = 0;
    for (std::size_t i = 0; i + 1 < def.points.size(); i += 2) {
      const PointStats& mcs = stats[i];
      const PointStats& gl = stats[i + 1];
      if (!mcs.have_counters || !gl.have_counters ||
          mcs.counters.count(f.key) == 0 || gl.counters.count(f.key) == 0) {
        return std::nullopt;
      }
      const double norm = gl.counters.at(f.key) / mcs.counters.at(f.key);
      if (reg[i / 2].is_microbenchmark) {
        sum_m += norm;
        ++n_m;
      } else {
        sum_a += norm;
        ++n_a;
      }
    }
    if (n_m == 0 || n_a == 0) return std::nullopt;
    err += std::abs(sum_m / n_m - f.paper_m) + std::abs(sum_a / n_a - f.paper_a);
  }
  return 100.0 * err / 6.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed" || flag == "--seconds") {
      std::size_t used = 0;
      try {
        if (flag == "--seed") {
          a.seed = std::stoull(v, &used);
        } else {
          a.seconds = std::stod(v, &used);
        }
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != v.size() || v.empty() || v[0] == '-') {
        throw std::runtime_error("bad value '" + v + "' for " + flag);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return a;
}

/// Unit of a reported metric, from its name.
std::string unit_of(const std::string& name) {
  static const std::map<std::string, const char*> kUnits = {
      {"wall_s", "s"}, {"sim_mcps", "Mcycles/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"}, {"failed_frac", "ratio"},
      {"paper_err_pp", "pp"}};
  const auto it = kUnits.find(name);
  if (it != kUnits.end()) return it->second;
  const auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    return "s";
  }
  if (has("_ns_")) return "ns";
  if (has("_us_")) return "us";
  if (has("fraction") || has("rate") || has("efficiency") || has("overhead")) {
    return "ratio";
  }
  return "count";
}

void print_metric(const std::string& name, double v) {
  std::printf("metric %-28s %.6g %s\n", name.c_str(), v,
              unit_of(name).c_str());
}

/// One run of one workload: setup probes, the closed loop, the metrics.
class Bench {
 public:
  Bench(const Args& args, const WorkloadDef& def,
        std::map<std::string, std::string> references)
      : args_(args),
        def_(def),
        is_sweep_(def.points.empty()),
        start_(now_s()),
        deadline_(start_ + args.seconds),
        gate_(std::move(references), args.seed == kReferenceSeed),
        log_(args.trace) {
    // The points at seed n: the setup probes and, for the sweep, the
    // grid points run alone in the traced mode.
    if (is_sweep_) {
      const auto spec = sweep_spec(args.seed);
      for (const auto& [p, seed] : sweep_points(spec)) {
        grid_.push_back({p, sweep_config(spec, p, seed)});
      }
    } else {
      for (const auto& p : def.points) {
        grid_.push_back({p, make_config(p, args.seed)});
      }
    }
    stats_.resize(grid_.size());
  }

  /// Runs the workload and computes the metrics.
  void measure() {
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u compiler=\"%s\" build=%s jobs=%u\n",
                def_.name.c_str(),
                static_cast<unsigned long long>(args_.seed), args_.seconds,
                args_.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                is_sweep_ ? sweep_jobs() : 1u);
    root_ = log_.begin("run", -1);
    if (args_.trace) {
      const ScopedSpan span(log_, "drivers", root_);
      for (const auto& [k, v] :
           run_drivers(def_.machine_cores, kDriverBudgetS, log_, span.id())) {
        layer_[k] = v;
      }
    }
    measure_setup();
    if (is_sweep_) {
      loop_sweep();
    } else {
      loop_points();
    }
    log_.end(root_);
    summarize();
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the metrics and, last, the JSON result line.
  void report() const {
    std::printf("simulations attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    print_metric("failed_frac",
                 attempted_ == 0 ? 1.0
                                 : static_cast<double>(failed_) /
                                       static_cast<double>(attempted_));
    if (def_.name == "paper32") {
      if (const auto err = paper_error_pp(def_, stats_)) {
        print_metric("paper_err_pp", *err);
      }
    }
    for (const auto& [k, v] : e2e_) print_metric(k, v);
    if (args_.trace) {
      std::printf("spans recorded %zu (%.0f ns each)\n", log_.spans().size(),
                  per_span_s_ * 1e9);
      std::printf("%-20s %8s %12s %12s\n", "span", "count", "total_s",
                  "self_s");
      for (const auto& [name, t] : log_.totals()) {
        std::printf("%-20s %8llu %12.6f %12.6f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count), t.total_s,
                    t.self_s);
      }
      if (!args_.spans_out.empty()) write_spans();
      for (const auto& [k, v] : layer_) print_metric(k, v);
    }

    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : args_.trace ? layer_ : e2e_) {
      js << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << v
         << ", \"unit\": \"" << unit_of(k) << "\"}";
      first = false;
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
  }

 private:
  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }

  /// Every point built to cycle 1, kSetupRounds times; setup_s is the
  /// median round.
  void measure_setup() {
    const ScopedSpan span(log_, "setup_probes", root_);
    std::vector<double> rounds;
    for (int r = 0; r < kSetupRounds; ++r) {
      double total = 0;
      for (const auto& [p, cfg] : grid_) {
        total += setup_probe(p, cfg, log_, span.id());
      }
      rounds.push_back(total);
    }
    e2e_["setup_s"] = median(rounds);
  }

  /// The first pass always completes; after it, a point runs again only
  /// if its last run time still fits before the deadline. Pass k runs at
  /// seed n + k mod kSeedsPerRun.
  void loop_points() {
    std::vector<double> est(def_.points.size(), 0.0);
    for (int pass = 0;; ++pass) {
      const std::uint64_t seed =
          args_.seed + static_cast<std::uint64_t>(pass) % kSeedsPerRun;
      std::optional<ScopedSpan> pass_span;
      for (std::size_t i = 0; i < def_.points.size(); ++i) {
        if (pass > 0 && now_s() + est[i] > deadline_) continue;
        if (!pass_span) pass_span.emplace(log_, "pass", root_);
        const SimPoint& p = def_.points[i];
        const SimSample s = run_sim(p, make_config(p, seed), false, log_,
                                    pass_span->id(), next_sim_++);
        ++attempted_;
        if (!s.ok) {
          fail(p.id() + ": " + s.error);
          continue;
        }
        est[i] = s.wall_s();
        if (pass < static_cast<int>(kSeedsPerRun)) {
          std::printf("digest %s %s %llu %s\n", def_.name.c_str(),
                      p.id().c_str(), static_cast<unsigned long long>(seed),
                      s.digest.c_str());
        }
        const std::string why =
            gate_.check(def_.name + " " + p.id(), seed, s.digest);
        if (!why.empty()) fail(why);
        stats_[i].add(s);
      }
      if (!pass_span) break;
    }
  }

  /// run_sweep passes until the next would overrun the deadline; passes
  /// alternate between the seed pairs {n, n+1} and {n+2, n+3}.
  void loop_sweep() {
    GroupedSamples elapsed, mcps, busy, efficiency;  // by CSV digest
    const std::size_t rows = grid_.size();
    double est = 0;
    for (int pass = 0;; ++pass) {
      if (pass > 0 && now_s() + est > deadline_) break;
      const ScopedSpan pass_span(log_, "pass", root_);
      const std::uint64_t first_seed =
          args_.seed + 2 * static_cast<std::uint64_t>(pass % 2);
      const glocks::exec::SweepSpec spec = sweep_spec(first_seed);
      std::ostringstream csv;
      glocks::perf::SimPerf perf;
      const double t0 = now_s();
      attempted_ += rows;
      try {
        const ScopedSpan span(log_, "run_sweep", pass_span.id());
        glocks::exec::run_sweep(spec, csv, &perf);
      } catch (const std::exception& e) {
        failed_ += rows - 1;
        fail(std::string("run_sweep: ") + e.what());
        est = now_s() - t0;
        continue;
      }
      const double dt = now_s() - t0;
      est = dt;
      const std::string digest = fnv1a_hex(csv.str());
      std::printf("pass %d seeds %llu,%llu run_sweep %.3f s digest %s\n",
                  pass, static_cast<unsigned long long>(first_seed),
                  static_cast<unsigned long long>(first_seed + 1), dt,
                  digest.c_str());
      const std::string why =
          gate_.check(def_.name + " grid", first_seed, digest);
      if (!why.empty()) {
        failed_ += rows - 1;
        fail(why);
      }
      if (pass == 0 && args_.trace) points_pass(csv.str(), pass_span.id());
      std::ostringstream pj;
      perf.write_json(pj);
      const FlatJson pf = flatten_json(pj.str());
      elapsed.add(digest, dt);
      if (pf.count("sim_cycles") != 0) {
        mcps.add(digest, pf.at("sim_cycles") / dt / 1e6);
      }
      if (pf.count("wall_seconds") != 0) {
        busy.add(digest, pf.at("wall_seconds"));
        efficiency.add(digest, pf.at("wall_seconds") / (spec.jobs * dt));
      }
    }
    if (elapsed.value() > 0) e2e_["wall_s"] = elapsed.value();
    if (mcps.value() > 0) e2e_["sim_mcps"] = mcps.value();
    layer_["exec.busy_s"] = busy.value();
    layer_["exec.efficiency"] = efficiency.value();
  }

  /// Each grid point of the first sweep pass run alone, on the sweep's
  /// job count: the per-layer counters and report time the sweep's CSV
  /// does not carry, and a check that every row equals the sweep's row.
  void points_pass(const std::string& sweep_csv, std::int32_t parent) {
    const ScopedSpan span(log_, "points", parent);
    std::vector<SimSample> samples(grid_.size());
    const std::int64_t base = next_sim_;
    next_sim_ += static_cast<std::int64_t>(grid_.size());
    glocks::exec::parallel_for(grid_.size(), sweep_jobs(), [&](std::size_t i) {
      samples[i] = run_sim(grid_[i].first, grid_[i].second, true, log_,
                           span.id(), base + static_cast<std::int64_t>(i));
    });
    std::istringstream csv(sweep_csv);
    std::string line;
    std::getline(csv, line);  // header
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ++attempted_;
      std::getline(csv, line);
      const SimSample& s = samples[i];
      const std::uint64_t seed = grid_[i].second.seed;
      const std::string id =
          grid_[i].first.id() + " seed " + std::to_string(seed);
      if (!s.ok) {
        fail(id + ": " + s.error);
      } else if (s.csv_row != line + "\n") {
        fail(id + ": row run alone differs from the sweep's row");
      } else {
        stats_[i].add(s);
      }
    }
  }

  /// End-to-end metrics from per-point timings over every seed of the
  /// run; per-layer metrics from the first-pass counters (seed n) and the
  /// timings at seed n.
  void summarize() {
    FlatJson counters;
    double wall = 0, log_mcps = 0, run_s = 0, make_s = 0, report_s = 0;
    bool complete = true;
    for (const PointStats& ps : stats_) {
      if (!ps.have_counters || ps.mcps.value() <= 0) {
        complete = false;
        continue;
      }
      add_counters(counters, ps.counters);
      wall += ps.wall.value();
      log_mcps += std::log(ps.mcps.value());
      run_s += ps.run.at(ps.first_digest);
      make_s += ps.make.at(ps.first_digest);
      report_s += ps.report.at(ps.first_digest);
    }
    if (!is_sweep_ && complete) {
      e2e_["wall_s"] = wall;
      // Geometric mean over points of each point's rate: QSORT's cycle
      // count follows the seed, so a cycle-weighted mean would too.
      e2e_["sim_mcps"] =
          std::exp(log_mcps / static_cast<double>(stats_.size()));
    }
    e2e_["peak_rss_mb"] = peak_rss_mb();
    if (complete && (!is_sweep_ || args_.trace)) {
      layer_metrics(counters, run_s, make_s, report_s, is_sweep_, layer_);
    }
    if (!is_sweep_) {
      layer_["exec.busy_s"] = 0.0;  // exec runs only the sweep
      layer_["exec.efficiency"] = 0.0;
    }
    if (args_.trace) {
      // The recorder's own cost: spans recorded times the calibrated cost
      // of recording one, over the traced run's wall time.
      SpanLog probe(true);
      const int n = 20000;
      const double t0 = now_s();
      for (int i = 0; i < n; ++i) probe.end(probe.begin("calibrate", -1));
      per_span_s_ = (now_s() - t0) / n;
      layer_["trace.overhead_frac"] =
          static_cast<double>(log_.spans().size()) * per_span_s_ /
          (now_s() - start_);
      if (e2e_.count("wall_s") != 0) layer_["trace.wall_s"] = e2e_["wall_s"];
    }
  }

  void write_spans() const {
    std::ofstream f(args_.spans_out);
    f << "{\"workload\": \"" << def_.name << "\", \"seed\": " << args_.seed
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build\": \""
      << PERFBENCH_BUILD_TYPE << "\"}\n";
    log_.write_jsonl(f);
    if (!f) throw std::runtime_error("cannot write " + args_.spans_out);
    std::printf("spans written to %s\n", args_.spans_out.c_str());
  }

  const Args& args_;
  const WorkloadDef& def_;
  const bool is_sweep_;
  const double start_;
  const double deadline_;
  Gate gate_;
  SpanLog log_;
  std::int32_t root_ = -1;
  std::int64_t next_sim_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double per_span_s_ = 0;
  /// Every point at seed n with its configuration (for the sweep, every
  /// grid row of the first pass).
  std::vector<std::pair<SimPoint, glocks::harness::RunConfig>> grid_;
  std::vector<PointStats> stats_;
  Metrics e2e_, layer_;
};

WorkloadDef find_workload(const std::string& name) {
  for (const WorkloadDef& def : workload_defs()) {
    if (def.name == name) return def;
  }
  throw std::runtime_error("unknown workload '" + name +
                           "' (paper32, mcs256, glock256, sweep-faulted)");
}

int run(const Args& args) {
  const WorkloadDef def = find_workload(args.workload);
  Bench bench(args, def, load_references(kReferencesPath));
  bench.measure();
  bench.report();
  return 0;
}

/// The gate must catch an altered digest: one pass of glock256 at the
/// reference seed against the recorded references must pass, and against
/// a copy with one point's digest altered must give failed_frac > 0; a
/// repeat of a point with a different digest must fail.
int self_test() {
  const auto ref = load_references(kReferencesPath);
  const WorkloadDef def = find_workload("glock256");
  Args one_pass;
  one_pass.workload = def.name;
  one_pass.seconds = 0;
  const std::string key = def.name + " " + def.points.front().id();
  const std::string ref_key = key + " " + std::to_string(kReferenceSeed);
  if (ref.count(ref_key) == 0) {
    std::printf("self-test: no reference digest for %s\n", ref_key.c_str());
    return 1;
  }
  int bad = 0;
  const auto expect = [&](bool cond, const char* what) {
    std::printf("self-test: %-52s %s\n", what, cond ? "ok" : "WRONG");
    if (!cond) ++bad;
  };

  Bench clean(one_pass, def, ref);
  clean.measure();
  expect(clean.attempted() > 0 && clean.failed() == 0,
         "the recorded references pass");

  auto altered = ref;
  std::string& d = altered[ref_key];
  d[0] = d[0] == '0' ? '1' : '0';
  Bench broken(one_pass, def, altered);
  broken.measure();
  expect(broken.failed() > 0 &&
             static_cast<double>(broken.failed()) / broken.attempted() > 0,
         "one altered reference digest gives failed_frac > 0");

  Gate repeat(ref, false);
  expect(repeat.check(key, 7, "0000000000000000").empty() &&
             !repeat.check(key, 7, "1000000000000000").empty(),
         "a repeat with a different digest fails");
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.self_test ? perfbench::self_test()
                          : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
