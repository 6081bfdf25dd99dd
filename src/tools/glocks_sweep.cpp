// glocks-sweep — batch experiment runner producing one CSV table.
// `glocks-sweep --help` prints the flags (kUsage below). The CSV bytes do
// not depend on --jobs; tests/determinism_test.cpp holds the tool to that.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/manifest.hpp"
#include "common/config.hpp"
#include "exec/job_pool.hpp"
#include "exec/sweep.hpp"
#include "fault/fault.hpp"
#include "tools/args.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace glocks;

constexpr const char* kUsage = R"(usage:
  glocks-sweep --workloads SCTR,RAYTR --locks mcs,glock --cores 8,16,32
  glocks-sweep --all --locks mcs,glock --jobs 8 > results.csv

Flags:
  --workloads A,B,...   benchmarks to run (--all = every registry entry)
  --locks a,b,...       highly-contended lock kinds      [mcs,glock]
  --cores n1,n2,...     core counts                      [32]
  --scale X             input scale in (0,1]             [1.0]
  --seeds n1,n2,...     workload seeds (--seed N works too)  [1]
  --jobs N              simulations run concurrently     [nproc]
  --all                 shorthand for every workload
  --faults SPEC         fault-injection plan for every grid point.
                        SPEC is a bare rate ("0.001") or a key=value
                        list; bare keys target the G-line domain
                        ("drop=1e-3,stuck=1e-4,seed=7,fallback=mcs"),
                        a "gline:" or "mesh:" prefix names the domain
                        explicitly — "mesh:drop=1e-4,mesh:dead=1e-6"
                        arms the mesh-link fault domain, and
                        "mesh:kill=TILE.D@CYCLE" (D in n/s/e/w)
                        scripts a link death; see fault/fault.hpp and
                        docs/fault_model.md. Adds the armed domains'
                        fault/recovery columns to the CSV. Each point
                        mixes its workload seed into the plan seed, so
                        the whole table is still deterministic and
                        byte-identical across --jobs values.
  --perf                print an aggregate simulator-throughput summary
                        (all runs folded) to stderr; the CSV on stdout
                        is unchanged.
  --manifest FILE       sweep-resume checkpoint. Completed grid points
                        are appended to FILE as they finish; rerunning
                        the same command after a kill emits the
                        already-finished rows from FILE and runs only
                        the missing points — the CSV on stdout stays
                        byte-identical to an uninterrupted sweep. FILE
                        is keyed on the sweep spec (jobs excluded):
                        reusing it with a different grid is a
                        structured spec-mismatch error.
  --help                print this text

Output: the report CSV header plus one row per
(workload, lock, cores, seed), with `cores` and `seed` columns
prepended. Every run is an independent simulation with its own
machine, so runs parallelize freely across --jobs worker threads; rows
stream as the leading edge of the grid completes and are always
emitted in grid order, so the CSV bytes are identical for any --jobs
value. A mistake on the command line exits 2; a simulator error exits 1.
)";

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::Args args(argc, argv, {"all", "help", "perf"},
                           {"workloads", "locks", "cores", "scale", "seed",
                            "seeds", "jobs", "faults", "manifest"});
    if (args.has("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }

    exec::SweepSpec spec;
    if (args.has("all")) {
      for (const auto& e : workloads::registry()) {
        spec.workloads.push_back(e.name);
      }
    } else {
      spec.workloads = split(args.get("workloads"));
    }
    tools::usage_check(!spec.workloads.empty(),
                       "nothing to run: pass --workloads or --all");
    for (const auto& w : spec.workloads) {
      tools::usage_check(workloads::find_workload(w) != nullptr,
                         "unknown workload " + w + " (try --help)");
    }

    for (const auto& lname : split(args.get("locks", "mcs,glock"))) {
      const auto kind = locks::parse_lock_kind(lname);
      tools::usage_check(kind.has_value(), "unknown lock kind " + lname);
      spec.lock_kinds.push_back(*kind);
    }
    for (const auto& cstr : split(args.get("cores", "32"))) {
      spec.core_counts.push_back(
          static_cast<std::uint32_t>(tools::Args::parse_u64("cores", cstr)));
    }
    spec.scale = args.get_double("scale", 1.0);

    // --seeds takes a comma list so seed replication parallelizes like
    // any other grid axis; --seed is the single-value spelling.
    tools::usage_check(!(args.has("seed") && args.has("seeds")),
                       "pass --seed or --seeds, not both");
    if (args.has("seeds")) {
      spec.seeds.clear();
      for (const auto& sstr : split(args.get("seeds"))) {
        spec.seeds.push_back(tools::Args::parse_u64("seeds", sstr));
      }
      tools::usage_check(!spec.seeds.empty(),
                         "--seeds needs at least one seed");
    } else {
      spec.seeds = {args.get_u64("seed", 1)};
    }

    spec.jobs = static_cast<unsigned>(
        args.get_u64("jobs", exec::default_jobs()));
    tools::usage_check(spec.jobs >= 1, "--jobs must be >= 1");

    if (args.has("faults")) {
      spec.fault = tools::as_usage(
          [&] { return fault::parse_fault_spec(args.get("faults")); });
    }
    for (const auto cores : spec.core_counts) {
      CmpConfig cmp;
      cmp.num_cores = cores;
      cmp.fault = spec.fault;
      tools::as_usage([&] { cmp.validate(); });
    }

    std::unique_ptr<ckpt::SweepManifest> manifest;
    if (args.has("manifest")) {
      manifest = std::make_unique<ckpt::SweepManifest>(
          args.get("manifest"), exec::sweep_signature(spec));
      if (!manifest->completed().empty()) {
        std::fprintf(stderr,
                     "glocks-sweep: resuming, %zu of %zu grid points "
                     "already in the manifest\n",
                     manifest->completed().size(), exec::sweep_size(spec));
      }
    }

    if (args.has("perf")) {
      perf::SimPerf agg;
      exec::run_sweep(spec, std::cout, &agg, manifest.get());
      std::cerr << agg.summary();
    } else {
      exec::run_sweep(spec, std::cout, nullptr, manifest.get());
    }
    return 0;
  } catch (const tools::UsageError& e) {
    std::fprintf(stderr, "glocks-sweep: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glocks-sweep: %s\n", e.what());
    return 1;
  }
}
