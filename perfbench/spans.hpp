// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around each call into a simulator layer, kept
// in a vector, and written out once the run ends. A disabled recorder
// does no clock reads and stores nothing. Spans may be recorded from
// several threads (the sweep's points run on the job pool).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct Span {
  const char* name;
  double start;
  double end;
  std::int32_t parent;  ///< index of the enclosing span, -1 for the root
  std::int64_t sim;     ///< simulation id, -1 outside any simulation
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::int64_t sim = -1) {
    if (!enabled_) return -1;
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, 0.0, parent, sim});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Read only after every recording thread has finished.
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start/end in seconds from the first
  /// span, parent index, simulation id.
  void write_jsonl(std::ostream& os) const {
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"start\": " << (s.start - t0) << ", \"end\": "
         << (s.end - t0) << ", \"parent\": " << s.parent
         << ", \"sim\": " << s.sim << "}\n";
    }
  }

  /// Total and self time per span name. Self time is a span's duration
  /// minus the part of it its direct children cover (children running in
  /// parallel cover an instant once).
  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameTotals> totals() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back(
            {s.start, s.end});
      }
    }
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0, reach = spans_[i].start;
      for (const auto& [start, end] : kids) {
        const double from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      NameTotals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total_s += d;
      t.self_s += d - covered;
    }
    return out;
  }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Closes a span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int32_t parent,
             std::int64_t sim = -1)
      : log_(log), id_(log.begin(name, parent, sim)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

}  // namespace perfbench
