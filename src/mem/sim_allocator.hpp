// Bump allocator over the simulated physical address space.
//
// Workloads and lock algorithms place their shared data structures with
// this; there is no free() — simulations are short-lived and allocation
// layout must be deterministic.
#pragma once

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace glocks::mem {

class SimAllocator {
 public:
  /// Starts allocating at `base` (default leaves page 0 unused so that a
  /// zero word can act as a null pointer in simulated data structures).
  explicit SimAllocator(Addr base = 0x10000) : next_(base) {
    GLOCKS_CHECK(base % kLineBytes == 0, "heap base must be line-aligned");
  }

  /// Allocates `bytes` with the given alignment (power of two).
  Addr alloc(std::uint64_t bytes, std::uint64_t align = sizeof(Word)) {
    GLOCKS_CHECK(bytes > 0, "zero-byte allocation");
    GLOCKS_CHECK((align & (align - 1)) == 0, "alignment not a power of two");
    next_ = (next_ + align - 1) & ~(align - 1);
    const Addr out = next_;
    next_ += bytes;
    return out;
  }

  /// Allocates one full cache line, line-aligned: the idiom for anything
  /// that must not false-share (lock words, per-thread flags, counters).
  Addr alloc_line() { return alloc(kLineBytes, kLineBytes); }

  /// Allocates `n` consecutive line-aligned lines; returns the first.
  Addr alloc_lines(std::uint64_t n) {
    const Addr first = alloc(n * kLineBytes, kLineBytes);
    return first;
  }

  Addr bytes_used(Addr base = 0x10000) const { return next_ - base; }

  /// Checkpoint: the bump pointer (the layout itself is replay-built).
  void save(ckpt::ArchiveWriter& a) const { a.u64(next_); }

 private:
  Addr next_;
};

}  // namespace glocks::mem
