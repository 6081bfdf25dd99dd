// A set of small indices stored as 64-bit words, scanned in index order
// with count-trailing-zeros. Backs the engine's active-slot set and the
// mesh's occupied-router and backlogged-NIC worklists, so each stepped
// cycle costs the work in it rather than the size of the machine.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace glocks::common {

class WordBitset {
 public:
  /// Grows the set to hold indices [0, n); new bits start clear. Growing
  /// may move the words, so size the set before handing out word().
  void resize(std::size_t n) { words_.resize((n + 63) / 64, 0); }

  void set(std::size_t i) { words_[i / 64] |= mask(i); }
  void reset(std::size_t i) { words_[i / 64] &= ~mask(i); }
  bool test(std::size_t i) const { return (words_[i / 64] & mask(i)) != 0; }
  bool none() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// The word holding index `i`, for a producer that marks itself
  /// without a reference to the whole set (`*word(i) |= mask(i)`).
  std::uint64_t* word(std::size_t i) { return &words_[i / 64]; }
  static std::uint64_t mask(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }

  /// Calls fn(i) for every set index in ascending order. The current
  /// word is re-read after every call, so an index that fn sets above
  /// the cursor is visited in this same pass and one it sets at or below
  /// the cursor is not — the order a full index loop that skips clear
  /// entries would produce.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        // Bits strictly above b. (~1 << b) never shifts by 64, so b = 63
        // yields an empty mask instead of re-visiting bit 63.
        bits = words_[w] & (~std::uint64_t{1} << b);
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace glocks::common
