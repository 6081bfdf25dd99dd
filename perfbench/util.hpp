// Host clock and the median the benchmark reports everywhere.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

/// Host seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perfbench
