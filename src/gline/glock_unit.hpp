// One hardware GLock: its G-line network and the three controller kinds of
// paper Figure 6 (local controllers, secondary lock managers, the primary
// lock manager), implementing the token protocol of Section III-B.
//
// Topology (2D mesh of W x H tiles):
//   * every core has a local controller (LC) wired by a horizontal G-line
//     to its row's secondary manager (S), placed at the row's middle tile;
//   * every S is wired by a vertical G-line to the primary manager (R) at
//     the middle row. Controllers co-located with their manager use a
//     zero-latency internal flag instead of a G-line (Section III-A).
//
// Wire count per lock: (C - rows) horizontal + (rows - 1) vertical = C - 1,
// matching paper Table I.
//
// Signal semantics: a pulse on an up-wire toggles the manager's f-flag
// (0 -> 1 is a REQ, 1 -> 0 is a REL, Section III-D); a pulse on a
// down-wire is always a TOKEN.
//
// Round-robin policy (Section III-B): a manager holding the token scans
// its flags upward from just past the previously-granted index; when the
// scan passes the last flag, RoundRobin() = NULL and the token returns to
// the parent (for S) or the pass restarts (for R). This bounds any core's
// wait by one full rotation: the fairness property the tests verify.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"

namespace glocks::gline {

class GlockUnit {
 public:
  /// `regs[c]` are core c's architectural lock registers; `glock` selects
  /// which req/rel pair within them belongs to this unit.
  GlockUnit(GlockId glock, std::uint32_t num_cores, std::uint32_t mesh_width,
            Cycle signal_latency,
            std::vector<glocks::core::LockRegisters*> regs);

  /// One cycle: local controllers, then secondary managers, then the
  /// primary manager. All links — G-lines and co-located internal flags
  /// alike — are observed one cycle after they are written, matching the
  /// cycle labels of paper Figure 4.
  void tick(Cycle now);

  const GlineStats& stats() const { return stats_; }

  /// Number of physical G-lines deployed (== C - 1 on a full mesh).
  std::uint32_t num_glines() const { return num_glines_; }
  std::uint32_t num_secondary_managers() const {
    return static_cast<std::uint32_t>(rows_.size());
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

  struct LocalCtl {
    CoreId core = 0;
    LcState state = LcState::kIdle;
    Wire up;    ///< LC -> S (REQ/REL)
    Wire down;  ///< S -> LC (TOKEN)
    LocalCtl(CoreId c, Cycle lat, bool local)
        : core(c), up(lat, local), down(lat, local) {}
  };

  struct Row {
    std::vector<std::uint32_t> members;  ///< indices into lcs_
    std::vector<bool> fx;                ///< request flags, one per member
    Wire up;    ///< S -> R (REQ/REL)
    Wire down;  ///< R -> S (TOKEN)
    bool has_token = false;
    bool requested = false;              ///< REQ sent to R, waiting/holding
    /// Index (into members) of the member the token was granted to; -1
    /// when the manager is free to schedule.
    int granted = -1;
    /// Scan position of the round-robin pass: next scan starts at pos.
    std::uint32_t pos = 0;
    Row(Cycle lat, bool local) : up(lat, local), down(lat, local) {}
  };

  void tick_local(LocalCtl& lc, Cycle now);
  void tick_secondary(std::uint32_t row_idx, Cycle now);
  void tick_primary(Cycle now);
  void record_pulse(Wire& w, Cycle now);

  GlockId glock_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LocalCtl> lcs_;
  std::vector<Row> rows_;
  // Primary manager state.
  std::vector<bool> fs_;       ///< one flag per row
  bool token_home_ = true;     ///< token parked at R
  int granted_row_ = -1;
  std::uint32_t r_pos_ = 0;
  std::uint32_t num_glines_ = 0;
  GlineStats stats_;
};

}  // namespace glocks::gline
