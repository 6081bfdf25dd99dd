// Off-chip memory: a sparse, zero-initialized line store.
//
// Latency is charged by the home directory (CmpConfig::memory_latency);
// this class only holds the bits. The harness uses poke/peek to initialize
// workload data before the simulation starts and to verify results after.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "mem/protocol.hpp"

namespace glocks::mem {

class BackingStore {
 public:
  /// Reads a full line; untouched memory reads as zero.
  LineData read_line(Addr line) const {
    auto it = lines_.find(line);
    return it == lines_.end() ? LineData{} : it->second;
  }

  void write_line(Addr line, const LineData& data) {
    lines_[line] = data;
  }

  /// Direct word access for test/workload setup (no timing, no coherence).
  Word peek(Addr addr) const {
    GLOCKS_CHECK(addr % sizeof(Word) == 0, "unaligned peek at " << addr);
    const auto it = lines_.find(line_of(addr));
    if (it == lines_.end()) return 0;
    return it->second[line_offset(addr) / sizeof(Word)];
  }

  void poke(Addr addr, Word value) {
    GLOCKS_CHECK(addr % sizeof(Word) == 0, "unaligned poke at " << addr);
    lines_[line_of(addr)][line_offset(addr) / sizeof(Word)] = value;
  }

  std::size_t touched_lines() const {
    return lines_.size();
  }

  /// Checkpoint: touched lines in sorted address order (the map's own
  /// iteration order is not canonical, so it never reaches the archive).
  void save(ckpt::ArchiveWriter& a) const {
    std::vector<Addr> keys;
    keys.reserve(lines_.size());
    for (const auto& [line, data] : lines_) keys.push_back(line);
    std::sort(keys.begin(), keys.end());
    a.u64(keys.size());
    for (Addr line : keys) {
      a.u64(line);
      for (Word w : lines_.at(line)) a.u64(w);
    }
  }

 private:
  std::unordered_map<Addr, LineData> lines_;
};

}  // namespace glocks::mem
