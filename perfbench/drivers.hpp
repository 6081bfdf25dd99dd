// Isolated component drivers for the traced run. Each one builds a single
// simulator component sized to a workload's machine, drives it through its
// public tick/send/issue calls, and reports host nanoseconds per operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// Runs every driver for a machine of `cores` cores, spending about
/// `budget_s` host seconds on each, and returns the metrics by name
/// (sim.drv_ns_per_wake, noc.drv_ns_per_tick, noc.drv_ns_per_packet,
/// gline.drv_ns_per_round, mem.drv_ns_per_l1_hit). Each driver records a
/// span under `parent`.
std::map<std::string, double> run_drivers(std::uint32_t cores,
                                          double budget_s, SpanLog& log,
                                          std::int32_t parent);

}  // namespace perfbench
