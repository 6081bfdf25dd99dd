#include "perf/perf.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace glocks::perf {

double SimPerf::msim_cycles_per_sec() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(sim_cycles) / wall_seconds / 1e6;
}

double SimPerf::skip_fraction() const {
  // The serial loop would tick every slot on every cycle, including the
  // cycles the event kernel jumped over.
  const std::uint64_t per_cycle =
      engine.cycles_stepped == 0
          ? 0
          : (engine.ticks_executed + engine.ticks_skipped) /
                engine.cycles_stepped;
  const std::uint64_t obligation =
      per_cycle * (engine.cycles_stepped + engine.cycles_skipped);
  if (obligation == 0) return 0.0;
  return 1.0 - static_cast<double>(engine.ticks_executed) /
                   static_cast<double>(obligation);
}

double ShardExecPerf::avg_window() const {
  if (windowed_epochs == 0) return 0.0;
  return static_cast<double>(windowed_cycles) /
         static_cast<double>(windowed_epochs);
}

std::uint64_t ShardExecPerf::wait_ns(std::size_t s) const {
  if (s >= shard_busy_ns.size()) return 0;
  const std::uint64_t busy = shard_busy_ns[s];
  return epoch_wall_ns > busy ? epoch_wall_ns - busy : 0;
}

double MsgPathPerf::express_hit_rate() const {
  const std::uint64_t attempts =
      express_hits + express_declined + express_materialized;
  if (attempts == 0) return 0.0;
  return static_cast<double>(express_hits) / static_cast<double>(attempts);
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
  msg.express_hits += other.msg.express_hits;
  msg.express_declined += other.msg.express_declined;
  msg.express_materialized += other.msg.express_materialized;
  spin.parks += other.spin.parks;
  spin.elided += other.spin.elided;
  spin.unparks_inv += other.spin.unparks_inv;
  spin.unparks_fwd += other.spin.unparks_fwd;
  shard.shards = std::max(shard.shards, other.shard.shards);
  shard.lockstep_epochs += other.shard.lockstep_epochs;
  shard.windowed_epochs += other.shard.windowed_epochs;
  shard.windowed_cycles += other.shard.windowed_cycles;
  for (std::size_t i = 0; i < shard.window_hist.size(); ++i) {
    shard.window_hist[i] += other.shard.window_hist[i];
  }
  shard.cross_wakes += other.shard.cross_wakes;
  shard.epoch_wall_ns += other.shard.epoch_wall_ns;
  if (shard.shard_busy_ns.size() < other.shard.shard_busy_ns.size()) {
    shard.shard_busy_ns.resize(other.shard.shard_busy_ns.size(), 0);
  }
  for (std::size_t i = 0; i < other.shard.shard_busy_ns.size(); ++i) {
    shard.shard_busy_ns[i] += other.shard.shard_busy_ns[i];
  }
  shard.staged_packets += other.shard.staged_packets;
  shard.boundary_flits += other.shard.boundary_flits;
  shard.windowed_sends += other.shard.windowed_sends;
  if (shard.map.empty()) {
    shard.map = other.shard.map;
  } else if (!other.shard.map.empty() && other.shard.map != shard.map) {
    shard.map = "mixed";
  }
  if (!other.shard.tile_top.empty()) {
    // Merge by tile id, then re-rank and re-truncate.
    for (const auto& [tile, cost] : other.shard.tile_top) {
      auto it = std::find_if(shard.tile_top.begin(), shard.tile_top.end(),
                             [t = tile](const auto& e) {
                               return e.first == t;
                             });
      if (it != shard.tile_top.end()) {
        it->second += cost;
      } else {
        shard.tile_top.emplace_back(tile, cost);
      }
    }
    std::sort(shard.tile_top.begin(), shard.tile_top.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (shard.tile_top.size() > ShardExecPerf::kTileTopN) {
      shard.tile_top.resize(ShardExecPerf::kTileTopN);
    }
  }
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
      << "); express " << msg.express_hits << " hits, "
      << msg.express_declined << " declined, " << msg.express_materialized
      << " materialized (" << msg.express_hit_rate() * 100.0
      << "% hit rate)\n";
  oss << "spin: " << spin.parks << " parks, " << spin.elided
      << " elided iterations; unparks " << spin.unparks_inv << " inv, "
      << spin.unparks_fwd << " fwd\n";
  if (shard.shards > 1) {
    oss << "sharded: " << shard.shards << " shards";
    if (!shard.map.empty()) oss << ", map " << shard.map;
    oss << "; " << shard.lockstep_epochs << " lockstep + "
        << shard.windowed_epochs
        << " windowed epochs (" << shard.windowed_cycles
        << " cycles, avg window " << shard.avg_window() << "); hist [";
    for (std::size_t i = 0; i < shard.window_hist.size(); ++i) {
      oss << (i ? " " : "") << shard.window_hist[i];
    }
    oss << "]; " << shard.staged_packets << " staged pkts, "
        << shard.boundary_flits << " boundary flits, "
        << shard.windowed_sends << " windowed sends, " << shard.cross_wakes
        << " cross wakes\n";
    oss << "shard busy/wait ms:";
    for (std::size_t s = 0; s < shard.shard_busy_ns.size(); ++s) {
      oss << " s" << s << " "
          << static_cast<double>(shard.shard_busy_ns[s]) / 1e6 << "/"
          << static_cast<double>(shard.wait_ns(s)) / 1e6;
    }
    oss << "\n";
    if (!shard.tile_top.empty()) {
      oss << "hot tiles:";
      for (const auto& [tile, cost] : shard.tile_top) {
        oss << " t" << tile << " " << cost;
      }
      oss << "\n";
    }
  }
  return oss.str();
}

void SimPerf::write_json(std::ostream& out, int indent) const {
  const std::string pad(indent, ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
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
  out << in2 << "\"express_hits\": " << msg.express_hits << ",\n";
  out << in2 << "\"express_declined\": " << msg.express_declined << ",\n";
  out << in2 << "\"express_materialized\": " << msg.express_materialized
      << ",\n";
  out << in2 << "\"express_hit_rate\": " << msg.express_hit_rate() << "\n";
  out << in1 << "},\n";
  out << in1 << "\"spin\": {\n";
  out << in2 << "\"parks\": " << spin.parks << ",\n";
  out << in2 << "\"elided\": " << spin.elided << ",\n";
  out << in2 << "\"unparks_inv\": " << spin.unparks_inv << ",\n";
  out << in2 << "\"unparks_fwd\": " << spin.unparks_fwd << "\n";
  out << in1 << "},\n";
  out << in1 << "\"shard_exec\": {\n";
  out << in2 << "\"shards\": " << shard.shards << ",\n";
  out << in2 << "\"lockstep_epochs\": " << shard.lockstep_epochs << ",\n";
  out << in2 << "\"windowed_epochs\": " << shard.windowed_epochs << ",\n";
  out << in2 << "\"windowed_cycles\": " << shard.windowed_cycles << ",\n";
  out << in2 << "\"avg_window\": " << shard.avg_window() << ",\n";
  out << in2 << "\"window_hist\": [";
  for (std::size_t i = 0; i < shard.window_hist.size(); ++i) {
    out << (i ? ", " : "") << shard.window_hist[i];
  }
  out << "],\n";
  out << in2 << "\"cross_wakes\": " << shard.cross_wakes << ",\n";
  out << in2 << "\"epoch_wall_ns\": " << shard.epoch_wall_ns << ",\n";
  out << in2 << "\"shard_busy_ns\": [";
  for (std::size_t s = 0; s < shard.shard_busy_ns.size(); ++s) {
    out << (s ? ", " : "") << shard.shard_busy_ns[s];
  }
  out << "],\n";
  out << in2 << "\"shard_wait_ns\": [";
  for (std::size_t s = 0; s < shard.shard_busy_ns.size(); ++s) {
    out << (s ? ", " : "") << shard.wait_ns(s);
  }
  out << "],\n";
  out << in2 << "\"staged_packets\": " << shard.staged_packets << ",\n";
  out << in2 << "\"boundary_flits\": " << shard.boundary_flits << ",\n";
  out << in2 << "\"windowed_sends\": " << shard.windowed_sends << ",\n";
  out << in2 << "\"map\": \"" << shard.map << "\",\n";
  out << in2 << "\"tile_top\": [";
  for (std::size_t i = 0; i < shard.tile_top.size(); ++i) {
    out << (i ? ", " : "") << "{\"tile\": " << shard.tile_top[i].first
        << ", \"cost\": " << shard.tile_top[i].second << "}";
  }
  out << "]\n";
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
  out << pad << "}";
}

SimPerf capture(const sim::Engine& engine, double wall_seconds) {
  SimPerf p;
  p.wall_seconds = wall_seconds;
  p.sim_cycles = engine.now();
  p.runs = 1;
  p.engine = engine.perf();
  p.slots = engine.slot_perf();
  const sim::WindowPerf w = engine.window_perf();
  p.shard.shards = engine.num_shards();
  p.shard.lockstep_epochs = w.lockstep_epochs;
  p.shard.windowed_epochs = w.windowed_epochs;
  p.shard.windowed_cycles = w.windowed_cycles;
  p.shard.window_hist = w.window_hist;
  p.shard.cross_wakes = w.cross_wakes;
  p.shard.epoch_wall_ns = w.epoch_wall_ns;
  p.shard.shard_busy_ns = w.shard_busy_ns;
  // The mesh-side staging counters (staged_packets / boundary_flits /
  // windowed_sends) are filled by the harness runner, which owns the
  // mesh — mirroring how the message-path block is populated.
  return p;
}

}  // namespace glocks::perf
