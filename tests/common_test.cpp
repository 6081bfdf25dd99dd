// Unit tests for common/: types, config, stats, rng, allocator, check.
#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/sim_allocator.hpp"

namespace glocks {
namespace {

TEST(Types, LineArithmetic) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 1u);
  EXPECT_EQ(line_base(130), 128u);
  EXPECT_EQ(line_offset(130), 2u);
  EXPECT_EQ(kWordsPerLine, 8u);
}

TEST(Check, ThrowsWithContext) {
  try {
    GLOCKS_CHECK(1 == 2, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Config, DefaultsMatchTable2) {
  CmpConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.num_cores, 32u);
  EXPECT_EQ(cfg.l1.num_sets(), 128u);   // 32KB / (4 * 64B)
  EXPECT_EQ(cfg.l2.num_sets(), 1024u);  // 256KB / (4 * 64B)
  EXPECT_EQ(cfg.memory_latency, 400u);
  EXPECT_EQ(cfg.mesh_width(), 6u);
  EXPECT_EQ(cfg.mesh_height(), 6u);
  EXPECT_EQ(cfg.mesh_tiles(), 36u);
  const std::string table = cfg.to_table();
  EXPECT_NE(table.find("32KB, 4-way, 2 cycles"), std::string::npos);
  EXPECT_NE(table.find("256KB, 4-way, 12+4 cycles"), std::string::npos);
}

TEST(Config, MeshDimensionsForVariousCoreCounts) {
  CmpConfig cfg;
  for (const auto& [cores, w, h] :
       {std::tuple{1u, 1u, 1u}, {4u, 2u, 2u}, {9u, 3u, 3u}, {16u, 4u, 4u},
        std::tuple{7u, 3u, 3u}, {49u, 7u, 7u}}) {
    cfg.num_cores = cores;
    EXPECT_EQ(cfg.mesh_width(), w) << cores;
    EXPECT_EQ(cfg.mesh_height(), h) << cores;
  }
}

TEST(Config, ValidateRejectsBadGeometry) {
  CmpConfig cfg;
  cfg.num_cores = 0;
  EXPECT_THROW(cfg.validate(), SimError);
  cfg = CmpConfig{};
  cfg.l1.size_bytes = 1000;  // sets not a power of two
  EXPECT_THROW(cfg.validate(), SimError);
  cfg = CmpConfig{};
  cfg.noc.link_width_bytes = 16;  // narrower than a data message
  EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Histogram, BandsAndFractions) {
  Histogram h(32);
  h.add(1, 10);
  h.add(16, 30);
  h.add(32, 60);
  EXPECT_EQ(h.total(1), 100u);
  EXPECT_EQ(h.total(2, 31), 30u);
  EXPECT_DOUBLE_EQ(h.fraction(21, 32), 0.6);
  EXPECT_DOUBLE_EQ(h.fraction(1, 32), 1.0);
  EXPECT_THROW(h.add(33), SimError);
}

TEST(Histogram, EmptyFractionIsZero) {
  Histogram h(8);
  EXPECT_DOUBLE_EQ(h.fraction(1, 8), 0.0);
}

TEST(CounterSet, MergeAccumulates) {
  CounterSet a, b;
  a.add("x", 3);
  b.add("x", 4);
  b.add("y");
  a.merge(b);
  EXPECT_EQ(a.get("x"), 7u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.get("absent"), 0u);
}

TEST(Rng, DeterministicAndWellSpread) {
  Rng a(42), b(42), c(43);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.next();
    EXPECT_EQ(v, b.next());
    seen.insert(v);
  }
  EXPECT_NE(a.next(), c.next());
  EXPECT_GT(seen.size(), 990u);  // essentially no collisions
  for (int i = 0; i < 100; ++i) {
    const double u = a.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(a.below(7), 7u);
  }
  EXPECT_EQ(a.below(0), 0u);
}

TEST(SimAllocator, AlignmentAndLines) {
  mem::SimAllocator heap;
  const Addr a = heap.alloc(8);
  const Addr b = heap.alloc_line();
  const Addr c = heap.alloc_lines(3);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % kLineBytes, 0u);
  EXPECT_EQ(c % kLineBytes, 0u);
  EXPECT_NE(line_of(a), line_of(b));
  EXPECT_THROW(heap.alloc(0), SimError);
  EXPECT_THROW(heap.alloc(8, 3), SimError);  // non-power-of-two alignment
}

TEST(SimAllocator, LinesDoNotOverlap) {
  mem::SimAllocator heap;
  const Addr a = heap.alloc_lines(2);
  const Addr b = heap.alloc_line();
  EXPECT_GE(b, a + 2 * kLineBytes);
}

}  // namespace
}  // namespace glocks
