// Name-indexed registry of all benchmarks with their Table III defaults.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/workload.hpp"

namespace glocks::workloads {

struct RegistryEntry {
  std::string name;
  bool is_microbenchmark;
  std::string access_pattern;  ///< Table III "Access Pattern" column
  std::string input_size;      ///< Table III "Input Size" column
  /// Builds the workload; `scale` in (0,1] shrinks the input size
  /// proportionally (iterations / rays / timesteps / elements). The
  /// contention *profile* is scale-invariant; profiling benches use
  /// scale < 1 to keep pathological baselines (all-TATAS) tractable.
  std::function<std::unique_ptr<harness::Workload>(double scale)> make;
};

/// All eight benchmarks of the paper's evaluation, in Table III order:
/// SCTR, MCTR, DBLL, PRCO, ACTR, RAYTR, OCEAN, QSORT.
const std::vector<RegistryEntry>& registry();

/// The registry entry named `name`, or null when there is none.
const RegistryEntry* find_workload(const std::string& name);

/// Builds one benchmark by name; throws SimError for unknown names.
std::unique_ptr<harness::Workload> make_workload(const std::string& name,
                                                 double scale = 1.0);

/// The five microbenchmark names / the three application names.
std::vector<std::string> microbenchmark_names();
std::vector<std::string> application_names();

}  // namespace glocks::workloads
