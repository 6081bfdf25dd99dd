// Guards the SimPerf JSON that the benchmark of record (perfbench/) reads
// its per-layer counters from. The benchmark flattens the document into
// dotted keys and looks each counter up by name; a key it cannot find
// drops the metric from its result line without an error. This runs one
// 32-core workload, flattens the JSON with the benchmark's own parser,
// and requires every key the benchmark reads and a finite value for
// every number in it.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/runner.hpp"
#include "json_flat.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

TEST(SimPerfJson, CarriesEveryKeyTheBenchmarkReadsAndOnlyFiniteNumbers) {
  auto wl = workloads::make_workload("SCTR", 0.25);
  harness::RunConfig cfg;
  cfg.cmp.num_cores = 32;
  cfg.policy.highly_contended = locks::LockKind::kMcs;
  const harness::RunResult r = harness::run_workload(*wl, cfg);
  std::ostringstream os;
  r.perf.write_json(os);
  const perfbench::FlatJson flat = perfbench::flatten_json(os.str());
  for (const char* key :
       {"engine.ticks_executed", "engine.wakes_scheduled",
        "engine.cycles_stepped", "engine.cycles_skipped",
        "engine.clock_jumps", "slot_count", "sim_cycles",
        "msg_path.pool_acquires", "msg_path.express_hits",
        "msg_path.express_declined", "msg_path.express_materialized"}) {
    EXPECT_EQ(flat.count(key), 1u) << "SimPerf JSON lacks " << key;
  }
  EXPECT_GT(flat.at("sim_cycles"), 0.0);
  for (const auto& [key, value] : flat) {
    EXPECT_TRUE(std::isfinite(value)) << key << " = " << value;
  }
}

}  // namespace
}  // namespace glocks
