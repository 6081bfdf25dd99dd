// Unit tests of the G-line token tree: Table I's C - 1 G-lines for the
// flat layout, the reach-bounded tree's shape and wire count, leaf and
// node edges pointing back at their vertex, and the two root rules of the
// shared round-robin step.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gline/token_tree.hpp"

namespace glocks::gline {
namespace {

/// Every vertex but the root appears exactly once as a child, at the
/// (manager, slot) its edge names.
void expect_edges_point_back(const TokenTree& t) {
  ASSERT_EQ(t.num_edges(), t.num_leaves() + t.num_nodes() - 1);
  std::vector<int> seen(t.num_edges(), 0);
  for (std::uint32_t n = 0; n < t.num_nodes(); ++n) {
    for (const std::uint32_t v : t.children(n)) {
      ASSERT_LT(v, t.num_edges());
      ++seen[v];
    }
  }
  for (std::uint32_t v = 0; v < t.num_edges(); ++v) {
    EXPECT_EQ(seen[v], 1) << "vertex " << v;
    const TokenTree::Edge& e = t.edge(v);
    ASSERT_LT(e.manager, t.num_nodes());
    ASSERT_LT(e.slot, t.children(e.manager).size());
    EXPECT_EQ(t.children(e.manager)[e.slot], v) << "vertex " << v;
  }
}

TEST(FlatTree, CMinusOneGlinesForEveryWidth) {
  for (std::uint32_t c = 2; c <= 49; ++c) {
    for (std::uint32_t w = 1; w <= c; ++w) {
      SCOPED_TRACE(::testing::Message() << c << " cores, width " << w);
      const auto t = TokenTree::flat(c, w, 1);
      EXPECT_EQ(t.num_glines(), c - 1);  // paper Table I
      EXPECT_EQ(t.depth(), 2u);
      EXPECT_EQ(t.num_nodes(), (c + w - 1) / w + 1);  // rows + primary
      EXPECT_EQ(t.root_rule(), TokenTree::RootRule::kCircular);
      expect_edges_point_back(t);
    }
  }
}

TEST(FlatTree, MiddleTileAndMiddleRowAreColocated) {
  const auto t = TokenTree::flat(32, 6, 2);  // rows of 6, last row of 2
  for (std::uint32_t c = 0; c < 32; ++c) {
    const std::uint32_t row_size = c < 30 ? 6 : 2;
    EXPECT_EQ(t.edge(c).manager, c / 6);
    EXPECT_EQ(t.edge(c).colocated, c % 6 == row_size / 2) << "core " << c;
    EXPECT_EQ(t.edge(c).latency, 2u);
  }
  for (std::uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(t.edge(32 + r).colocated, r == 3) << "row " << r;
  }
}

TEST(ReachBoundedTree, ShapeAndWireCount) {
  struct Shape {
    std::uint32_t cores, reach, nodes, depth;
  };
  for (const Shape s : {Shape{100, 6, 21, 3}, Shape{9, 3, 4, 2},
                        Shape{36, 6, 7, 2}, Shape{216, 6, 43, 3},
                        Shape{256, 6, 54, 4}, Shape{5, 6, 1, 1}}) {
    SCOPED_TRACE(::testing::Message() << s.cores << "/" << s.reach);
    const auto t = TokenTree::reach_bounded(s.cores, s.reach, 1, false);
    EXPECT_EQ(t.num_nodes(), s.nodes);
    EXPECT_EQ(t.depth(), s.depth);
    // Nothing co-located: one G-line per vertex below the root.
    EXPECT_EQ(t.num_glines(), s.cores + s.nodes - 1);
    EXPECT_EQ(t.root_rule(), TokenTree::RootRule::kResetPass);
    expect_edges_point_back(t);
    // Co-locating each node's middle child saves one line per node.
    const auto co = TokenTree::reach_bounded(s.cores, s.reach, 1, true);
    EXPECT_EQ(co.num_glines(), s.cores - 1);
    expect_edges_point_back(co);
  }
}

TEST(ReachBoundedTree, MeshWidthReachIsThePaperRows) {
  // The guarded transport's flat layout: a mesh is never taller than
  // wide, so grouping by the width gives the rows under one root, with
  // the flat tree's co-location; only the root rule differs.
  for (std::uint32_t c = 3; c <= 49; ++c) {
    SCOPED_TRACE(::testing::Message() << c << " cores");
    const auto w = static_cast<std::uint32_t>(std::ceil(std::sqrt(c)));
    const auto flat = TokenTree::flat(c, w, 1);
    const auto rows = TokenTree::reach_bounded(c, w, 1, true);
    ASSERT_EQ(rows.num_nodes(), flat.num_nodes());
    for (std::uint32_t v = 0; v < flat.num_edges(); ++v) {
      EXPECT_EQ(rows.edge(v).manager, flat.edge(v).manager);
      EXPECT_EQ(rows.edge(v).slot, flat.edge(v).slot);
      EXPECT_EQ(rows.edge(v).colocated, flat.edge(v).colocated);
    }
  }
}

TEST(TokenStep, CircularPrimaryWrapsAndResettingRootRestarts) {
  GlineStats stats;
  for (const bool circular : {true, false}) {
    SCOPED_TRACE(circular ? "flat primary" : "reach-bounded root");
    // Both roots have three children.
    const auto t = circular ? TokenTree::flat(9, 3, 1)
                            : TokenTree::reach_bounded(9, 3, 1, false);
    const std::uint32_t root = t.root();
    auto mgrs = t.make_managers();
    TokenManager& m = mgrs[root];
    m.pos = 2;
    m.fx[0] = true;  // pending below the scan position
    ASSERT_TRUE(t.acts(root, m));
    TokenTree::Action a = t.step(root, m, stats);
    if (!circular) {
      // The pass runs off the end: reset, grant on the next tick.
      EXPECT_EQ(a.send, TokenTree::Send::kNothing);
      EXPECT_EQ(m.pos, 0u);
      ASSERT_TRUE(t.acts(root, m));
      a = t.step(root, m, stats);
    }
    EXPECT_EQ(a.send, TokenTree::Send::kToken);
    EXPECT_EQ(a.vertex, t.children(root)[0]);
    EXPECT_EQ(m.granted, 0);
    EXPECT_FALSE(t.acts(root, m));
  }
  EXPECT_EQ(stats.secondary_passes, 0u);  // a root never hands back
}

TEST(TokenStep, SecondaryRequestsOnceGrantsThenHandsBack) {
  const auto t = TokenTree::flat(9, 3, 1);
  const std::uint32_t row = 0;
  auto mgrs = t.make_managers();
  TokenManager& m = mgrs[row];
  GlineStats stats;
  EXPECT_FALSE(t.acts(row, m));
  EXPECT_TRUE(t.at_rest(row, m));
  m.fx[2] = true;
  EXPECT_EQ(t.step(row, m, stats).send, TokenTree::Send::kReq);
  EXPECT_EQ(t.step(row, m, stats).send, TokenTree::Send::kNothing);
  m.has_token = true;  // the primary's TOKEN arrived
  const auto grant = t.step(row, m, stats);
  EXPECT_EQ(grant.send, TokenTree::Send::kToken);
  EXPECT_EQ(grant.vertex, 2u);
  m.fx[2] = false;  // the holder's REL
  m.granted = -1;
  const auto rel = t.step(row, m, stats);
  EXPECT_EQ(rel.send, TokenTree::Send::kRel);
  EXPECT_EQ(rel.vertex, 9u + row);  // the row's own edge
  EXPECT_EQ(stats.secondary_passes, 1u);
  EXPECT_FALSE(m.has_token);
  EXPECT_TRUE(t.at_rest(row, m));
}

}  // namespace
}  // namespace glocks::gline
