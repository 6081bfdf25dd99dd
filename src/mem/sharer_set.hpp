// Full-map directory sharer vector, sized at runtime by core count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace glocks::mem {

class SharerSet {
 public:
  SharerSet() = default;
  explicit SharerSet(std::uint32_t num_cores)
      : num_cores_(num_cores), bits_((num_cores + 63) / 64, 0) {}

  void add(CoreId c) {
    check(c);
    bits_[c / 64] |= (std::uint64_t{1} << (c % 64));
  }
  void remove(CoreId c) {
    check(c);
    bits_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }
  bool contains(CoreId c) const {
    check(c);
    return (bits_[c / 64] >> (c % 64)) & 1;
  }
  void clear() {
    for (auto& w : bits_) w = 0;
  }
  std::uint32_t count() const {
    std::uint32_t n = 0;
    for (auto w : bits_) n += static_cast<std::uint32_t>(__builtin_popcountll(w));
    return n;
  }
  bool empty() const {
    for (auto w : bits_) {
      if (w != 0) return false;
    }
    return true;
  }
  std::vector<CoreId> to_vector() const {
    std::vector<CoreId> out;
    for (CoreId c = 0; c < num_cores_; ++c) {
      if (contains(c)) out.push_back(c);
    }
    return out;
  }

  /// Checkpoint access: the raw bit words (fixed layout: bit c of word
  /// c/64 == core c shares the line).
  const std::vector<std::uint64_t>& words() const { return bits_; }

 private:
  void check(CoreId c) const {
    GLOCKS_CHECK(c < num_cores_, "sharer id " << c << " out of range");
  }
  std::uint32_t num_cores_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace glocks::mem
