// mem::SetAssoc against the eager store it replaced.
//
// The reference preallocates every set as a vector of default ways and
// applies the caches' victim rule (first invalid way, else the least
// lru, the first way winning ties). Both stores see the same seeded
// sequence of installs, invalidations and lru touches; at every step they
// must find the same lines, pick the same victim, and hold the same
// dense image (SetAssoc's untouched sets read as default ways).
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mem/set_assoc.hpp"

namespace glocks::mem {
namespace {

struct Way {
  bool valid = false;
  Addr line = 0;
  Cycle lru = 0;
  std::uint64_t payload = 0;  ///< unique per install, so ways differ

  bool operator==(const Way&) const = default;
};

class EagerStore {
 public:
  EagerStore(std::uint32_t num_sets, std::uint32_t ways)
      : sets_(num_sets, std::vector<Way>(ways)) {}

  Way* find(Addr line) {
    for (Way& w : sets_[line % sets_.size()]) {
      if (w.valid && w.line == line) return &w;
    }
    return nullptr;
  }

  Way& victim(Addr line) {
    Way* least = nullptr;
    for (Way& w : sets_[line % sets_.size()]) {
      if (!w.valid) return w;
      if (least == nullptr || w.lru < least->lru) least = &w;
    }
    return *least;
  }

  std::vector<Way> dense() const {
    std::vector<Way> out;
    for (const auto& set : sets_) {
      out.insert(out.end(), set.begin(), set.end());
    }
    return out;
  }

 private:
  std::vector<std::vector<Way>> sets_;
};

std::vector<Way> dense(const SetAssoc<Way>& store) {
  std::vector<Way> out(std::size_t{store.num_sets()} * store.ways());
  store.for_each([&](std::uint32_t s, const Way* ways) {
    for (std::uint32_t w = 0; w < store.ways(); ++w) {
      out[std::size_t{s} * store.ways() + w] = ways[w];
    }
  });
  return out;
}

using Shape = std::tuple<std::uint32_t, std::uint32_t>;  // sets, ways
class SetAssocDiff : public ::testing::TestWithParam<Shape> {};

TEST_P(SetAssocDiff, MatchesEagerStoreStepByStep) {
  const auto [num_sets, ways] = GetParam();
  SetAssoc<Way> store(num_sets, ways);
  EagerStore ref(num_sets, ways);
  std::mt19937_64 rng(num_sets * 131 + ways);
  // Lines map onto about two thirds of the sets, so some sets stay
  // untouched, and onto three times the ways, so touched sets evict.
  const std::uint64_t used_sets = std::max<std::uint64_t>(1, num_sets * 2 / 3);
  const auto pick_line = [&] {
    const std::uint64_t set = rng() % used_sets;
    return set + num_sets * (rng() % (3 * ways));
  };
  const int steps = num_sets * ways > 1000 ? 3000 : 20000;
  std::uint64_t installs = 0;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const Addr line = pick_line();
    Way* got = store.find(line);
    Way* want = ref.find(line);
    ASSERT_EQ(got != nullptr, want != nullptr) << "line " << line;
    if (got != nullptr) {
      ASSERT_EQ(*got, *want);
    }
    // Small lru values make ties common, so tie-breaking is exercised.
    const Cycle lru = rng() % 8;
    switch (rng() % 3) {
      case 0:  // install (or refresh a resident line)
        if (got == nullptr) {
          Way& v = store.victim(line);
          Way& r = ref.victim(line);
          ASSERT_EQ(v, r) << "victims differ for line " << line;
          v = r = Way{true, line, lru, ++installs};
        } else {
          got->lru = want->lru = lru;
        }
        break;
      case 1:  // invalidate: the way keeps its stale line, lru and payload
        if (got != nullptr) got->valid = want->valid = false;
        break;
      default:  // touch
        if (got != nullptr) got->lru = want->lru = lru;
        break;
    }
    ASSERT_EQ(dense(store), ref.dense());
  }
  EXPECT_LE(store.touched_sets(), used_sets);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SetAssocDiff,
    ::testing::Values(std::tuple{1u, 1u}, std::tuple{1u, 4u},
                      std::tuple{4u, 2u}, std::tuple{7u, 3u},
                      std::tuple{128u, 4u}, std::tuple{1024u, 4u}),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "sets_" +
             std::to_string(std::get<1>(info.param)) + "ways";
    });

TEST(SetAssoc, FindMissesUntouchedSetsAndSaveWritesOnlyTouchedOnes) {
  SetAssoc<Way> store(16, 2);
  EXPECT_EQ(store.find(5), nullptr);
  EXPECT_EQ(store.touched_sets(), 0u);
  store.victim(5) = Way{true, 5, 1, 1};
  store.victim(21) = Way{true, 21, 2, 2};  // same set, second way
  store.victim(3) = Way{true, 3, 3, 3};
  EXPECT_EQ(store.touched_sets(), 2u);
  ASSERT_NE(store.find(21), nullptr);
  EXPECT_EQ(store.find(21)->payload, 2u);

  ckpt::ArchiveWriter w;
  w.begin_section(1);
  store.save(w, [&w](const Way& e) { w.u64(e.line); });
  w.end_section();
  ckpt::ArchiveReader r(w.buffer());
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.u32(), 2u);  // touched sets, in index order:
  EXPECT_EQ(r.u32(), 3u);  // set 3: line 3, then an untouched way
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u32(), 5u);  // set 5: lines 5 and 21
  EXPECT_EQ(r.u64(), 5u);
  EXPECT_EQ(r.u64(), 21u);
  EXPECT_EQ(r.section_remaining(), 0u);
}

}  // namespace
}  // namespace glocks::mem
