#include "common/config.hpp"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace glocks {

namespace {

bool is_pow2(std::uint32_t v) { return v != 0 && std::has_single_bit(v); }

}  // namespace

void MeshFaultConfig::validate() const {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  GLOCKS_CHECK(rate_ok(drop_rate) && rate_ok(garble_rate) &&
                   rate_ok(delay_rate) && rate_ok(dead_rate),
               "mesh fault rates must lie in [0, 1]");
  GLOCKS_CHECK(max_delay >= 1, "fault.mesh.max_delay must be >= 1");
  GLOCKS_CHECK(dead_horizon >= 1, "fault.mesh.dead_horizon must be >= 1");
  GLOCKS_CHECK(retry_timeout >= 1, "fault.mesh.retry_timeout must be >= 1");
  GLOCKS_CHECK(max_retries >= 1, "fault.mesh.max_retries must be >= 1");
  GLOCKS_CHECK(backoff_cap >= retry_timeout,
               "fault.mesh.backoff_cap must be >= the retry timeout");
  GLOCKS_CHECK(e2e_max_retries >= 1,
               "fault.mesh.e2e_max_retries must be >= 1");
  for (const LinkKill& k : kills) {
    GLOCKS_CHECK(k.dir >= 1 && k.dir <= 4,
                 "fault.mesh kill direction must be 1..4 (N/S/E/W), got "
                     << k.dir);
  }
}

void FaultConfig::validate() const {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  GLOCKS_CHECK(rate_ok(drop_rate) && rate_ok(garble_rate) &&
                   rate_ok(delay_rate) && rate_ok(noise_rate) &&
                   rate_ok(stuck_rate),
               "fault rates must lie in [0, 1]");
  GLOCKS_CHECK(max_delay >= 1, "fault.max_delay must be >= 1");
  GLOCKS_CHECK(stuck_horizon >= 1, "fault.stuck_horizon must be >= 1");
  GLOCKS_CHECK(watchdog_timeout >= 1, "fault.watchdog_timeout must be >= 1");
  GLOCKS_CHECK(max_retries >= 1, "fault.max_retries must be >= 1");
  GLOCKS_CHECK(backoff_cap >= watchdog_timeout,
               "fault.backoff_cap must be >= the watchdog timeout");
  mesh.validate();
}

std::uint32_t CmpConfig::mesh_width() const {
  // Smallest W with W*H >= num_cores and W >= H; perfect squares (the
  // paper's layouts) give W == H == sqrt(C).
  auto w = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(num_cores))));
  return w;
}

std::uint32_t CmpConfig::mesh_height() const {
  const std::uint32_t w = mesh_width();
  return (num_cores + w - 1) / w;
}

Cycle CmpConfig::effective_drain_budget() const {
  if (drain_budget != 0) return drain_budget;
  // Worst-case settle time of one in-flight transaction: a full-diameter
  // mesh traversal per protocol leg (request, forward/invalidate, ack,
  // reply), cache lookups at both ends, and a memory fetch plus
  // writeback. The 64x margin covers queueing behind every other core's
  // traffic; a drain that outlives this is stuck, not slow.
  const Cycle hop = noc.router_latency + noc.link_latency;
  const Cycle diameter = (mesh_width() + mesh_height()) * hop;
  const Cycle txn = 4 * diameter + 2 * memory_latency + l2.tag_latency +
                    l2.data_latency + l1.access_latency;
  return 64 * txn + 16 * num_cores;
}

void CmpConfig::validate() const {
  GLOCKS_CHECK(num_cores >= 1, "need at least one core");
  GLOCKS_CHECK(num_cores <= 1024, "mesh model capped at 1024 cores");
  GLOCKS_CHECK(issue_width >= 1, "issue width must be positive");
  GLOCKS_CHECK(is_pow2(l1.num_sets()),
               "L1 sets must be a power of two, got " << l1.num_sets());
  GLOCKS_CHECK(is_pow2(l2.num_sets()),
               "L2 sets must be a power of two, got " << l2.num_sets());
  GLOCKS_CHECK(l1.ways >= 1 && l2.ways >= 1, "associativity must be >= 1");
  GLOCKS_CHECK(l1.access_latency >= 1, "L1 access latency must be >= 1");
  GLOCKS_CHECK(noc.link_width_bytes >= noc.data_msg_bytes,
               "link narrower than a data message; the one-flit-per-message "
               "model requires link_width_bytes >= data_msg_bytes");
  GLOCKS_CHECK(noc.input_queue_depth >= 1, "router queues must hold >= 1");
  GLOCKS_CHECK(gline.signal_latency >= 1, "G-line latency must be >= 1");
  fault.validate();
}

std::string CmpConfig::to_table() const {
  std::ostringstream oss;
  oss << "Number of cores      " << num_cores << "\n"
      << "Core                 " << (clock_mhz / 1000.0) << "GHz, in-order "
      << issue_width << "-way model\n"
      << "Cache line size      " << kLineBytes << " Bytes\n"
      << "L1 I/D-Cache         " << (l1.size_bytes / 1024) << "KB, "
      << l1.ways << "-way, " << l1.access_latency << " cycles\n"
      << "L2 Cache (per core)  " << (l2.slice_size_bytes / 1024) << "KB, "
      << l2.ways << "-way, " << l2.tag_latency << "+" << l2.data_latency
      << " cycles\n"
      << "Memory access time   " << memory_latency << " cycles\n"
      << "Network config       " << mesh_width() << "x" << mesh_height()
      << " 2D-mesh\n"
      << "Link width           " << noc.link_width_bytes << " bytes\n"
      << "Hardware GLocks      " << gline.num_glocks << "\n";
  return oss.str();
}

}  // namespace glocks
