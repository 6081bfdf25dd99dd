// Set-associative tag/data store shared by the L1 and the L2 slice.
//
// Storage is allocated on first touch. Each set has a 4-byte block index
// (kNone until the set is first asked for a victim); a touched set owns
// `ways` consecutive entries of one flat vector, appended in touch order.
// A run touches a few hundred lines, so a 256 KB slice costs its 4 KB
// index plus the sets it used, not 4096 entries up front.
//
// Sets are never released: an invalidated way keeps its stale line, data
// and lru, exactly as a preallocated array would, so victim choice and
// the checkpoint image do not depend on when a set was first touched.
//
// The entry vector grows on a set's first touch, so no Entry* or Entry&
// may be held across a victim() call for another line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/types.hpp"

namespace glocks::mem {

/// `Entry` has `valid`, `line` and `lru` members and a default state that
/// is an invalid way.
template <class Entry>
class SetAssoc {
 public:
  SetAssoc(std::uint32_t num_sets, std::uint32_t ways)
      : ways_(ways), index_(num_sets, kNone) {}

  std::uint32_t num_sets() const {
    return static_cast<std::uint32_t>(index_.size());
  }
  std::uint32_t ways() const { return ways_; }

  /// The valid way holding `line`, or nullptr (always, on an untouched set).
  Entry* find(Addr line) {
    const std::uint32_t block = index_[line % index_.size()];
    if (block == kNone) return nullptr;
    Entry* set = &entries_[std::size_t{block} * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == line) return &set[w];
    }
    return nullptr;
  }
  const Entry* find(Addr line) const {
    return const_cast<SetAssoc*>(this)->find(line);
  }

  /// The way `line` should fill: the first invalid way of its set, else
  /// the valid way with the least `lru` (the first such way on a tie).
  /// Allocates the set on its first touch.
  Entry& victim(Addr line) {
    std::uint32_t& block = index_[line % index_.size()];
    if (block == kNone) {
      block = static_cast<std::uint32_t>(entries_.size() / ways_);
      entries_.resize(entries_.size() + ways_);
    }
    Entry* set = &entries_[std::size_t{block} * ways_];
    Entry* least = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) return set[w];
      if (least == nullptr || set[w].lru < least->lru) least = &set[w];
    }
    return *least;
  }

  /// Calls `f(set, ways)` for every touched set in set-index order;
  /// `ways` points at the set's `ways()` entries. An untouched set holds
  /// nothing but default (invalid) entries.
  template <class F>
  void for_each(F&& f) const {
    for (std::uint32_t s = 0; s < index_.size(); ++s) {
      if (index_[s] != kNone) {
        f(s, &entries_[std::size_t{index_[s]} * ways_]);
      }
    }
  }

  std::uint32_t touched_sets() const {
    return static_cast<std::uint32_t>(entries_.size() / ways_);
  }

  /// Checkpoint: the touched-set count, then each touched set in index
  /// order as its index followed by its ways, each written by `put`.
  template <class Put>
  void save(ckpt::ArchiveWriter& a, Put&& put) const {
    a.u32(touched_sets());
    for_each([&](std::uint32_t s, const Entry* ways) {
      a.u32(s);
      for (std::uint32_t w = 0; w < ways_; ++w) put(ways[w]);
    });
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t ways_;
  std::vector<std::uint32_t> index_;  ///< set -> block, kNone = untouched
  std::vector<Entry> entries_;        ///< blocks of ways_, touch order
};

}  // namespace glocks::mem
