// glocksim — command-line front end to the simulator.
//
//   glocksim --list
//   glocksim --workload SCTR --lock glock
//   glocksim --workload RAYTR --lock mcs --cores 16 --scale 0.5
//   glocksim --workload QSORT --auto-assign --csv
//   glocksim --workload ACTR --lock glock --trace actr.json
//   glocksim --replay mytrace.txt --lock glock
//
// Flags:
//   --workload NAME      benchmark to run (see --list)           [required]
//   --lock KIND          highly-contended lock implementation    [glock]
//   --regular-lock KIND  implementation for other locks          [tatas]
//   --cores N            number of cores                         [32]
//   --scale X            input-size scale in (0,1]               [1.0]
//   --seed N             workload RNG seed                       [1]
//   --glocks N           hardware GLocks provisioned             [2]
//   --gline-latency N    G-line signal latency in cycles         [1]
//   --auto-assign        profile first, bind GLocks automatically
//   --csv                emit one CSV row (with header) instead of text
//   --json               emit a JSON document instead of text
//   --trace FILE         write a Chrome-trace JSON of lock/barrier events
//   --replay FILE        replay a lock-access trace instead of --workload
//                        (see workloads/trace_replay.hpp for the format)
//   --faults SPEC        enable fault injection; SPEC is a bare rate
//                        ("0.001") or a key=value list. Bare keys target
//                        the G-line domain ("drop=1e-3,stuck=1e-4,
//                        fallback=mcs"); a "gline:" or "mesh:" prefix
//                        names the domain explicitly — "mesh:drop=1e-4,
//                        mesh:dead=1e-6" arms the mesh-link fault domain
//                        (link-level retry, detour routing, end-to-end
//                        MSHR watchdogs), and "mesh:kill=TILE.D@CYCLE"
//                        (D in n/s/e/w) scripts a deterministic link
//                        death. Domains compose in one SPEC; see
//                        fault/fault.hpp and docs/fault_model.md. Adds
//                        the armed domains' fault/recovery sections to
//                        the report (and CSV/JSON output).
//   --fault-seed N       fault-injector seed (overrides seed= in SPEC)
//   --perf               print a simulator-throughput summary (wall time,
//                        Mcycles/s, kernel tick/skip counters) to stderr;
//                        stdout output is unchanged
//   --checkpoint-every N write a checkpoint of the full simulator state
//                        every N cycles (see docs/checkpoint_format.md).
//                        Incompatible with --replay (trace replays are
//                        not in the registry, so a checkpoint could not
//                        name its workload) and with --trace.
//   --checkpoint-dir D   directory checkpoint files land in         [.]
//   --restore FILE       resume the run saved in FILE: replay to the
//                        checkpoint cycle, byte-verify the machine
//                        against the archive, then run to completion.
//                        The run's spec comes from FILE — no --workload
//                        or machine flags. Output (text/CSV/JSON) is
//                        bit-identical to the uninterrupted run's.
//   --list               list available workloads and lock kinds
#include <cstdio>
#include <fstream>
#include <memory>
#include <iostream>

#include "ckpt/checkpoint.hpp"
#include "fault/fault.hpp"
#include "harness/auto_policy.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "tools/args.hpp"
#include "trace/tracer.hpp"
#include "workloads/registry.hpp"
#include "workloads/trace_replay.hpp"

namespace {

using namespace glocks;

int list_everything() {
  std::printf("workloads:\n");
  for (const auto& e : workloads::registry()) {
    std::printf("  %-7s %s (%s)\n", e.name.c_str(), e.input_size.c_str(),
                e.is_microbenchmark ? "microbenchmark" : "application");
  }
  std::printf("lock kinds:\n ");
  for (const auto k : locks::all_lock_kinds()) {
    std::printf(" %s", std::string(locks::to_string(k)).c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::Args args(
        argc, argv, {"auto-assign", "csv", "json", "list", "perf"},
        {"workload", "lock", "regular-lock", "cores", "scale", "seed",
         "glocks", "gline-latency", "trace", "replay", "faults",
         "fault-seed", "checkpoint-every", "checkpoint-dir", "restore"});
    if (args.has("list") || argc == 1) return list_everything();

    if (args.has("restore")) {
      GLOCKS_CHECK(!args.has("workload") && !args.has("replay") &&
                       !args.has("checkpoint-every") && !args.has("trace"),
                   "--restore takes the run's spec from the checkpoint "
                   "file; drop --workload/--replay/--checkpoint-every/"
                   "--trace");
      const std::string path = args.get("restore");
      const auto meta = ckpt::read_checkpoint_meta(path);
      const auto result = ckpt::restore_and_run(path);
      if (args.has("csv")) {
        harness::write_csv_header(std::cout, meta.spec.cmp.fault.enabled,
                                  meta.spec.cmp.fault.mesh.enabled);
        harness::write_csv_row(result, std::cout,
                               meta.spec.cmp.fault.enabled,
                               meta.spec.cmp.fault.mesh.enabled);
      } else if (args.has("json")) {
        harness::write_json(result, std::cout);
      } else {
        std::cout << harness::summary_text(result);
      }
      if (args.has("perf")) std::cerr << result.perf.summary();
      return 0;
    }

    const std::string name = args.get("workload");
    const std::string replay_file = args.get("replay");
    GLOCKS_CHECK(!name.empty() || !replay_file.empty(),
                 "--workload or --replay is required (try --list)");

    harness::RunConfig cfg;
    cfg.cmp.num_cores =
        static_cast<std::uint32_t>(args.get_u64("cores", 32));
    cfg.cmp.gline.num_glocks =
        static_cast<std::uint32_t>(args.get_u64("glocks", 2));
    cfg.cmp.gline.signal_latency = args.get_u64("gline-latency", 1);
    cfg.seed = args.get_u64("seed", 1);

    if (args.has("faults")) {
      cfg.cmp.fault = fault::parse_fault_spec(args.get("faults"));
    }
    if (args.has("fault-seed")) {
      GLOCKS_CHECK(cfg.cmp.fault.any(),
                   "--fault-seed needs --faults to enable injection");
      cfg.cmp.fault.seed = args.get_u64("fault-seed", 0);
    }

    const auto hc = locks::parse_lock_kind(args.get("lock", "glock"));
    const auto reg =
        locks::parse_lock_kind(args.get("regular-lock", "tatas"));
    GLOCKS_CHECK(hc.has_value() && reg.has_value(),
                 "unknown lock kind (try --list)");
    cfg.policy.highly_contended = *hc;
    cfg.policy.regular = *reg;

    const double scale = args.get_double("scale", 1.0);

    // Resolve the workload: registry entry or trace-replay file.
    const workloads::RegistryEntry* entry = nullptr;
    harness::WorkloadFactory factory;
    if (!replay_file.empty()) {
      std::ifstream in(replay_file);
      GLOCKS_CHECK(in.good(), "cannot open trace " << replay_file);
      auto trace = std::make_shared<workloads::LockTrace>(
          workloads::parse_lock_trace(in));
      factory = [trace](double) {
        return std::make_unique<workloads::TraceReplay>(*trace);
      };
    } else {
      for (const auto& e : workloads::registry()) {
        if (e.name == name) entry = &e;
      }
      GLOCKS_CHECK(entry != nullptr, "unknown workload " << name);
      factory = entry->make;
    }

    if (args.has("auto-assign")) {
      const auto assignment = harness::auto_assign_glocks(factory, cfg);
      cfg.policy = assignment.policy;
      if (!args.has("csv") && !args.has("json")) {
        std::printf("auto-assigned GLocks:");
        bool any = false;
        for (const auto& s : assignment.scores) {
          if (s.chosen) {
            std::printf(" %s", s.name.c_str());
            any = true;
          }
        }
        std::printf(any ? "\n" : " (none)\n");
      }
    }

    trace::Tracer tracer;
    if (args.has("trace")) cfg.tracer = &tracer;

    harness::RunResult result;
    if (args.has("checkpoint-every")) {
      GLOCKS_CHECK(replay_file.empty(),
                   "--checkpoint-every cannot checkpoint a --replay run: "
                   "trace replays are not registry workloads, so a "
                   "restore could not rebuild them");
      GLOCKS_CHECK(!args.has("trace"),
                   "--checkpoint-every and --trace are mutually exclusive");
      const Cycle every = args.get_u64("checkpoint-every", 0);
      GLOCKS_CHECK(every > 0,
                   "--checkpoint-every needs a positive cycle count");
      ckpt::RunSpec spec;
      spec.workload = name;
      spec.scale = scale;
      spec.seed = cfg.seed;
      spec.cmp = cfg.cmp;
      spec.policy = cfg.policy;  // post --auto-assign: already resolved
      spec.energy = cfg.energy;
      std::vector<std::string> written;
      result = ckpt::run_with_checkpoints(
          spec, ckpt::periodic_pauses(every, cfg.cmp.max_cycles),
          args.get("checkpoint-dir", "."), &written);
      std::fprintf(stderr, "checkpoints: %zu written\n", written.size());
    } else {
      auto wl = factory(scale);
      result = harness::run_workload(*wl, cfg);
    }

    if (args.has("trace")) {
      std::ofstream out(args.get("trace"));
      GLOCKS_CHECK(out.good(), "cannot open " << args.get("trace"));
      tracer.write_chrome_json(out);
      std::fprintf(stderr, "trace: %zu events -> %s\n",
                   tracer.events().size(), args.get("trace").c_str());
    }

    if (args.has("csv")) {
      harness::write_csv_header(std::cout, cfg.cmp.fault.enabled,
                                cfg.cmp.fault.mesh.enabled);
      harness::write_csv_row(result, std::cout, cfg.cmp.fault.enabled,
                             cfg.cmp.fault.mesh.enabled);
    } else if (args.has("json")) {
      harness::write_json(result, std::cout);
    } else {
      std::cout << harness::summary_text(result);
    }
    if (args.has("perf")) std::cerr << result.perf.summary();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glocksim: %s\n", e.what());
    return 1;
  }
}
