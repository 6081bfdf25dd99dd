// The topology every G-line lock unit runs its token protocol over, and the
// one round-robin step its managers take (paper Section III-B, Figure 6).
//
// A TokenTree is immutable and shared by every lock unit (and the barrier)
// built on it. Vertices are numbered leaves first — leaf c is core c's
// local controller — then manager nodes in level order, root last: node n
// is vertex num_leaves() + n. Every vertex but the root has one edge to its
// manager, which Table I counts as one G-line unless it is a co-located
// flag (a controller in its manager's own tile, Section III-A).
//
// Two builders:
//   * flat(): the paper's layout — one secondary manager per mesh row at
//     the row's middle tile, a primary manager at the middle row, the
//     middle tile and middle row co-located; C - 1 G-lines. The primary
//     scans circularly, resuming past its previous grant;
//   * reach_bounded(): Section V's second scaling path — cores grouped
//     into segments of at most `reach`, segments into groups of at most
//     `reach`, until one root remains. Its root resets its pass: when a
//     scan runs past the last child it restarts at child 0 on the next
//     tick.
//
// The step (step()/acts()) is transport-free: it decides, from a
// manager's flags, what to send next — a REQ up once per need, the TOKEN
// down to the next pending child from `pos`, or at the end of a pass the
// token back up (REL) — and the unit encodes that as a toggle pulse or a
// framed symbol.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/types.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

/// One manager's token state (fx flags of Table I, one per child).
struct TokenManager {
  std::vector<bool> fx;    ///< child wants the token
  bool has_token = false;  ///< always true at the root
  bool requested = false;  ///< REQ sent up, token not yet back
  /// Child slot holding the token (or with a grant in flight); -1 when
  /// the manager is free to schedule.
  int granted = -1;
  std::uint32_t pos = 0;  ///< next scan starts at this child slot
};

void save_token_manager(ckpt::ArchiveWriter& a, const TokenManager& m);

class TokenTree {
 public:
  /// What the root does when its scan finds no pending child from `pos`.
  enum class RootRule : std::uint8_t {
    kCircular,   ///< the flat primary: the scan wraps past the last child
    kResetPass,  ///< `pos` returns to 0; the next tick scans from child 0
  };

  /// A vertex's link to its manager.
  struct Edge {
    std::uint32_t manager = 0;  ///< node index
    std::uint32_t slot = 0;     ///< child index at that manager
    Cycle latency = 1;
    bool colocated = false;  ///< an internal flag, not a G-line
  };

  /// What a manager's step sends.
  enum class Send : std::uint8_t { kNothing, kReq, kToken, kRel };
  struct Action {
    Send send = Send::kNothing;
    /// Vertex whose edge carries the signal: the granted child for a
    /// TOKEN, the manager itself for a REQ or REL.
    std::uint32_t vertex = 0;
  };

  static TokenTree flat(std::uint32_t cores, std::uint32_t width,
                        Cycle latency);
  static TokenTree reach_bounded(std::uint32_t cores, std::uint32_t reach,
                                 Cycle latency, bool colocate_middle);

  std::uint32_t num_leaves() const { return num_leaves_; }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(children_.size());
  }
  std::uint32_t root() const { return num_nodes() - 1; }
  /// Children of node n, as vertex ids.
  const std::vector<std::uint32_t>& children(std::uint32_t n) const {
    return children_[n];
  }
  /// The edge from vertex v (v != the root's vertex) to its manager.
  const Edge& edge(std::uint32_t v) const { return edges_[v]; }
  std::uint32_t num_edges() const {
    return static_cast<std::uint32_t>(edges_.size());
  }
  /// Manager levels: 2 for the flat tree.
  std::uint32_t depth() const { return depth_; }
  /// Edges that are real G-lines (C - 1 for the flat tree).
  std::uint32_t num_glines() const;
  RootRule root_rule() const { return root_rule_; }

  /// One wire per edge, in vertex order, for a unit's up or down links.
  std::vector<Wire> make_wires() const;
  /// Initial manager states: flags clear, the token parked at the root.
  std::vector<TokenManager> make_managers() const;

  /// One round-robin step at node n, after the unit has folded this
  /// tick's child and parent signals into `m`. Updates `m` and returns
  /// the signal to send; counts a finished pass in `stats`.
  Action step(std::uint32_t n, TokenManager& m, GlineStats& stats) const;
  /// True when step() would change anything, with no new input.
  bool acts(std::uint32_t n, const TokenManager& m) const;
  /// True when no request, grant or pass is open at node n.
  bool at_rest(std::uint32_t n, const TokenManager& m) const;

 private:
  /// Groups `count` vertices from `first` into nodes of at most `span`
  /// children; returns the number of nodes made.
  std::uint32_t add_level(std::uint32_t first, std::uint32_t count,
                          std::uint32_t span, Cycle latency,
                          bool colocate_middle);

  std::uint32_t num_leaves_ = 0;
  std::vector<std::vector<std::uint32_t>> children_;
  std::vector<Edge> edges_;
  std::uint32_t depth_ = 0;
  RootRule root_rule_ = RootRule::kResetPass;
};

}  // namespace glocks::gline
