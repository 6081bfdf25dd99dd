#include "perf/perf.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace glocks::perf {

double SimPerf::msim_cycles_per_sec() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(sim_cycles) / wall_seconds / 1e6;
}

void SimPerf::add(const SimPerf& other) {
  wall_seconds += other.wall_seconds;
  sim_cycles += other.sim_cycles;
  runs += other.runs;
  engine.ticks_executed += other.engine.ticks_executed;
  engine.ticks_skipped += other.engine.ticks_skipped;
  engine.cycles_stepped += other.engine.cycles_stepped;
  engine.cycles_skipped += other.engine.cycles_skipped;
  engine.clock_jumps += other.engine.clock_jumps;
  engine.wakes_scheduled += other.engine.wakes_scheduled;
  msg.pool_heap_allocs += other.msg.pool_heap_allocs;
  msg.pool_heap_bytes += other.msg.pool_heap_bytes;
  msg.pool_acquires += other.msg.pool_acquires;
  msg.pool_reuses += other.msg.pool_reuses;
  msg.pool_high_water =
      std::max(msg.pool_high_water, other.msg.pool_high_water);
  msg.router_visits += other.msg.router_visits;
  msg.router_busy_visits += other.msg.router_busy_visits;
  spin.parks += other.spin.parks;
  spin.elided += other.spin.elided;
  spin.unparks_inv += other.spin.unparks_inv;
  spin.unparks_fwd += other.spin.unparks_fwd;
  for (const auto& s : other.slots) {
    auto it = std::find_if(slots.begin(), slots.end(),
                           [&](const sim::SlotPerf& m) {
                             return m.name == s.name;
                           });
    if (it == slots.end()) {
      slots.push_back(s);
    } else {
      it->ticks += s.ticks;
      it->wakes += s.wakes;
    }
  }
}

std::string SimPerf::summary() const {
  std::ostringstream oss;
  oss.precision(3);
  oss << std::fixed;
  oss << "sim-throughput: " << msim_cycles_per_sec() << " Mcycles/s ("
      << sim_cycles << " cycles in " << wall_seconds << " s";
  if (runs > 1) oss << ", " << runs << " runs";
  oss << ")\n";
  oss << "engine: " << engine.ticks_executed << " ticks executed, "
      << engine.ticks_skipped << " dormant slots skipped; "
      << engine.cycles_stepped << " cycles stepped, "
      << engine.cycles_skipped << " skipped via " << engine.clock_jumps
      << " clock jumps; " << engine.wakes_scheduled << " wakes\n";
  oss << "msg-path: pool " << msg.pool_acquires << " acquires ("
      << msg.pool_reuses << " reused, " << msg.pool_heap_allocs
      << " slab allocs, high-water " << msg.pool_high_water
      << "); " << msg.router_visits << " router visits ("
      << msg.router_busy_visits << " busy)\n";
  oss << "spin: " << spin.parks << " parks, " << spin.elided
      << " elided iterations; unparks " << spin.unparks_inv << " inv, "
      << spin.unparks_fwd << " fwd\n";
  return oss.str();
}

void SimPerf::write_json(std::ostream& out) const {
  const std::string in1 = "  ";
  const std::string in2 = "    ";
  out.precision(6);
  out << "{\n";
  out << in1 << "\"wall_seconds\": " << wall_seconds << ",\n";
  out << in1 << "\"sim_cycles\": " << sim_cycles << ",\n";
  out << in1 << "\"msim_cycles_per_sec\": " << msim_cycles_per_sec()
      << ",\n";
  out << in1 << "\"runs\": " << runs << ",\n";
  out << in1 << "\"engine\": {\n";
  out << in2 << "\"ticks_executed\": " << engine.ticks_executed << ",\n";
  out << in2 << "\"ticks_skipped\": " << engine.ticks_skipped << ",\n";
  out << in2 << "\"cycles_stepped\": " << engine.cycles_stepped << ",\n";
  out << in2 << "\"cycles_skipped\": " << engine.cycles_skipped << ",\n";
  out << in2 << "\"clock_jumps\": " << engine.clock_jumps << ",\n";
  out << in2 << "\"wakes_scheduled\": " << engine.wakes_scheduled << "\n";
  out << in1 << "},\n";
  out << in1 << "\"msg_path\": {\n";
  out << in2 << "\"pool_heap_allocs\": " << msg.pool_heap_allocs << ",\n";
  out << in2 << "\"pool_heap_bytes\": " << msg.pool_heap_bytes << ",\n";
  out << in2 << "\"pool_acquires\": " << msg.pool_acquires << ",\n";
  out << in2 << "\"pool_reuses\": " << msg.pool_reuses << ",\n";
  out << in2 << "\"pool_high_water\": " << msg.pool_high_water << ",\n";
  // Retired express-route counters, always 0: the benchmark's
  // noc.express_hit_rate metric still reads them, until a benchmark
  // change retires that metric.
  out << in2 << "\"express_hits\": 0,\n";
  out << in2 << "\"express_declined\": 0,\n";
  out << in2 << "\"express_materialized\": 0,\n";
  out << in2 << "\"router_visits\": " << msg.router_visits << ",\n";
  out << in2 << "\"router_busy_visits\": " << msg.router_busy_visits
      << "\n";
  out << in1 << "},\n";
  out << in1 << "\"spin\": {\n";
  out << in2 << "\"parks\": " << spin.parks << ",\n";
  out << in2 << "\"elided\": " << spin.elided << ",\n";
  out << in2 << "\"unparks_inv\": " << spin.unparks_inv << ",\n";
  out << in2 << "\"unparks_fwd\": " << spin.unparks_fwd << "\n";
  out << in1 << "},\n";
  // Slot detail used to list every registered component (5N + 3 entries
  // — hundreds of lines per payload at 256 cores). The benchmark JSON
  // only ever needed the aggregate shape, so emit the totals plus the
  // ten hottest slots by tick count.
  std::uint64_t slot_ticks = 0, slot_wakes = 0;
  for (const auto& s : slots) {
    slot_ticks += s.ticks;
    slot_wakes += s.wakes;
  }
  out << in1 << "\"slot_count\": " << slots.size() << ",\n";
  out << in1 << "\"slot_ticks\": " << slot_ticks << ",\n";
  out << in1 << "\"slot_wakes\": " << slot_wakes << ",\n";
  std::vector<sim::SlotPerf> hottest = slots;
  std::sort(hottest.begin(), hottest.end(),
            [](const sim::SlotPerf& a, const sim::SlotPerf& b) {
              if (a.ticks != b.ticks) return a.ticks > b.ticks;
              return a.name < b.name;  // deterministic across qsorts
            });
  if (hottest.size() > 10) hottest.resize(10);
  out << in1 << "\"hottest_slots\": [";
  for (std::size_t i = 0; i < hottest.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << in2 << "{\"name\": \"" << hottest[i].name
        << "\", \"ticks\": " << hottest[i].ticks
        << ", \"wakes\": " << hottest[i].wakes << "}";
  }
  out << (hottest.empty() ? "]\n" : "\n" + in1 + "]\n");
  out << "}";
}

SimPerf capture(const sim::Engine& engine, double wall_seconds) {
  SimPerf p;
  p.wall_seconds = wall_seconds;
  p.sim_cycles = engine.now();
  p.runs = 1;
  p.engine = engine.perf();
  p.slots = engine.slot_perf();
  return p;
}

}  // namespace glocks::perf
