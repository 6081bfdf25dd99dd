// One hardware GLock: its G-line network and the three controller kinds of
// paper Figure 6 (local controllers, secondary lock managers, the primary
// lock manager), implementing the token protocol of Section III-B over a
// TokenTree (token_tree.hpp).
//
// The paper's topology (2D mesh of W x H tiles, TokenTree::flat):
//   * every core has a local controller (LC) wired by a horizontal G-line
//     to its row's secondary manager (S), placed at the row's middle tile;
//   * every S is wired by a vertical G-line to the primary manager (R) at
//     the middle row. Controllers co-located with their manager use an
//     internal flag instead of a G-line (Section III-A).
// Wire count per lock: (C - rows) horizontal + (rows - 1) vertical = C - 1,
// matching paper Table I. A reach-bounded tree (Section V) runs the same
// protocol at any depth.
//
// Signal semantics: a pulse on an up-wire toggles the manager's f-flag
// (0 -> 1 is a REQ, 1 -> 0 is a REL, Section III-D); a pulse on a
// down-wire is always a TOKEN.
//
// Round-robin policy (Section III-B, TokenTree::step): a manager holding
// the token scans its flags upward from just past the previously-granted
// index; when the scan passes the last flag, RoundRobin() = NULL and the
// token returns to the parent (for S). The flat primary R scans
// circularly instead; a reach-bounded root restarts its pass. This bounds
// any core's wait by one full rotation: the fairness property the tests
// verify.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

class GlockUnit {
 public:
  /// The paper's flat network on a mesh `mesh_width` tiles wide.
  /// `regs[c]` are core c's architectural lock registers; `glock` selects
  /// which req/rel pair within them belongs to this unit.
  GlockUnit(GlockId glock, std::uint32_t num_cores, std::uint32_t mesh_width,
            Cycle signal_latency,
            std::vector<glocks::core::LockRegisters*> regs);
  /// Any token tree, shared with the other units built on it.
  GlockUnit(GlockId glock, std::shared_ptr<const TokenTree> tree,
            std::vector<glocks::core::LockRegisters*> regs);

  /// One cycle: local controllers, then the managers in level order, root
  /// last. All links — G-lines and co-located internal flags alike — are
  /// observed one cycle after they are written, matching the cycle labels
  /// of paper Figure 4.
  void tick(Cycle now);

  const GlineStats& stats() const { return stats_; }
  const TokenTree& tree() const { return *tree_; }

  /// Number of physical G-lines deployed (== C - 1 on a full mesh).
  std::uint32_t num_glines() const { return tree_->num_glines(); }
  std::uint32_t num_secondary_managers() const {
    return tree_->num_nodes() - 1;
  }

  /// Test hook: core currently holding the lock, if any.
  std::optional<CoreId> holder() const;

  /// True when no request, grant or release is anywhere in flight.
  bool idle() const;

  /// True when ticking the unit would change nothing: no pulse in flight
  /// on any wire and no controller with an actionable input. Unlike
  /// idle(), a quietly-held lock is dormant — the holding controller only
  /// acts again once its core sets the release register (which wakes the
  /// G-line system). Used by the event-driven kernel only.
  bool dormant() const;

  /// Checkpoint: controller FSMs, wires, manager flags/token state, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kWaiting, kHolding };

  void tick_local(CoreId c, Cycle now);
  void tick_manager(std::uint32_t n, Cycle now);
  void record_pulse(Wire& w, Cycle now);

  GlockId glock_;
  std::shared_ptr<const TokenTree> tree_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LcState> lcs_;  ///< one local controller per core
  std::vector<Wire> up_;      ///< per vertex: REQ/REL towards its manager
  std::vector<Wire> down_;    ///< per vertex: TOKEN from its manager
  std::vector<TokenManager> mgrs_;
  GlineStats stats_;
};

}  // namespace glocks::gline
