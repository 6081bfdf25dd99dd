#include "gline/token_tree.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {
namespace {

bool pending(const TokenManager& m) {
  return std::find(m.fx.begin(), m.fx.end(), true) != m.fx.end();
}

}  // namespace

void save_token_manager(ckpt::ArchiveWriter& a, const TokenManager& m) {
  a.u32(static_cast<std::uint32_t>(m.fx.size()));
  for (bool f : m.fx) a.b(f);
  a.b(m.has_token);
  a.b(m.requested);
  a.i64(m.granted);
  a.u32(m.pos);
}

std::uint32_t TokenTree::add_level(std::uint32_t first, std::uint32_t count,
                                   std::uint32_t span, Cycle latency,
                                   bool colocate_middle) {
  const std::uint32_t made = (count + span - 1) / span;
  edges_.resize(std::max<std::size_t>(edges_.size(), first + count));
  for (std::uint32_t k = 0; k < made; ++k) {
    const auto node = static_cast<std::uint32_t>(children_.size());
    auto& kids = children_.emplace_back();
    const std::uint32_t lo = k * span;
    const std::uint32_t hi = std::min(count, lo + span);
    const std::uint32_t middle = (hi - lo) / 2;  // the manager's own tile
    for (std::uint32_t slot = 0; slot < hi - lo; ++slot) {
      const std::uint32_t v = first + lo + slot;
      edges_[v] = Edge{node, slot, latency,
                       colocate_middle && slot == middle};
      kids.push_back(v);
    }
  }
  return made;
}

TokenTree TokenTree::flat(std::uint32_t cores, std::uint32_t width,
                          Cycle latency) {
  GLOCKS_CHECK(cores >= 1 && width >= 1, "flat tree needs cores and a width");
  TokenTree t;
  t.num_leaves_ = cores;
  t.root_rule_ = RootRule::kCircular;
  const std::uint32_t rows = t.add_level(0, cores, width, latency, true);
  t.add_level(cores, rows, rows, latency, true);
  t.depth_ = 2;
  return t;
}

TokenTree TokenTree::reach_bounded(std::uint32_t cores, std::uint32_t reach,
                                   Cycle latency, bool colocate_middle) {
  GLOCKS_CHECK(cores >= 1, "token tree needs at least one core");
  GLOCKS_CHECK(reach >= 2, "hierarchy needs a reach of at least 2");
  TokenTree t;
  t.num_leaves_ = cores;
  std::uint32_t first = 0;
  std::uint32_t count = cores;
  while (true) {
    const std::uint32_t level = t.num_nodes();
    count = t.add_level(first, count, reach, latency, colocate_middle);
    ++t.depth_;
    if (count == 1) break;
    first = cores + level;
  }
  return t;
}

std::uint32_t TokenTree::num_glines() const {
  return static_cast<std::uint32_t>(
      std::count_if(edges_.begin(), edges_.end(),
                    [](const Edge& e) { return !e.colocated; }));
}

std::vector<Wire> TokenTree::make_wires() const {
  std::vector<Wire> wires;
  wires.reserve(edges_.size());
  for (const Edge& e : edges_) wires.emplace_back(e.latency, e.colocated);
  return wires;
}

std::vector<TokenManager> TokenTree::make_managers() const {
  std::vector<TokenManager> mgrs(num_nodes());
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    mgrs[n].fx.assign(children_[n].size(), false);
  }
  mgrs.back().has_token = true;  // the token parks at the root
  return mgrs;
}

TokenTree::Action TokenTree::step(std::uint32_t n, TokenManager& m,
                                  GlineStats& stats) const {
  const std::uint32_t self = num_leaves_ + n;
  if (!m.has_token) {  // never the root, which keeps the token parked
    if (m.requested || !pending(m)) return {};
    m.requested = true;
    return {Send::kReq, self};  // REQ towards the parent
  }
  if (m.granted != -1) return {};  // a child holds (or grant in flight)

  // RoundRobin(): the next pending child from pos. Only the circular
  // primary wraps; every other scan is NULL past the last child.
  const auto k = static_cast<std::uint32_t>(m.fx.size());
  const bool wrap = n == root() && root_rule_ == RootRule::kCircular;
  for (std::uint32_t j = 0; j < k; ++j) {
    const std::uint32_t p = wrap ? (m.pos + j) % k : m.pos + j;
    if (p >= k) break;
    if (m.fx[p]) {
      m.granted = static_cast<int>(p);
      m.pos = wrap ? (p + 1) % k : p + 1;
      return {Send::kToken, children_[n][p]};
    }
  }
  if (wrap) return {};
  // Pass finished: a non-root hands the token back so other subtrees get
  // their turn, even if lower-index requests arrived meanwhile (global
  // fairness); the root starts its next pass on the next tick.
  m.pos = 0;
  if (n == root()) return {};
  m.has_token = false;
  m.requested = false;
  ++stats.secondary_passes;
  return {Send::kRel, self};  // REL towards the parent
}

bool TokenTree::acts(std::uint32_t n, const TokenManager& m) const {
  if (!m.has_token) return !m.requested && pending(m);
  if (m.granted != -1) return false;
  // A free non-root grants or returns the token; the root grants, or
  // (resetting) restarts a stale pass.
  if (n != root()) return true;
  return pending(m) || (root_rule_ == RootRule::kResetPass && m.pos != 0);
}

bool TokenTree::at_rest(std::uint32_t n, const TokenManager& m) const {
  return !m.requested && m.granted == -1 &&
         (n == root() || !m.has_token) && !pending(m);
}

}  // namespace glocks::gline
