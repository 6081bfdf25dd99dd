// Fault-tolerant GLock unit: the token-tree protocol of the baseline
// units rebuilt on reliable framed channels (framed_link.hpp), plus the
// failure path that the paper's fault-free wires never need.
//
// It runs on the same TokenTree as the clean GlockUnit; the differences:
//   * REQ/REL/TOKEN are explicit symbols, not flag toggles, so the link
//     layer may retransmit them idempotently — a lost pulse can no longer
//     invert a flag's meaning;
//   * every parent<->child link is a FramedChannel running stop-and-wait
//     ARQ with a watchdog, so transient faults are absorbed below the
//     protocol;
//   * when any channel exhausts its retry budget (permanent fault), the
//     unit enters `failing`: no new grants or requests are issued, the
//     unit waits until no leaf holds — or can still receive — the token
//     (the drain), then demotes itself: it flags the GLock as demoted on
//     the shared GlockHealth board and from then on merely flushes the
//     cores' lock registers — once right after demoting, then on every
//     tick a register write wakes — so register spins always unblock and
//     the ResilientGlock wrapper reroutes every acquire to its software
//     fallback lock.
//
// A tick visits only the live channels: those a send() marked and those
// whose next_event() deadline is due, leaves first and then manager
// up-links, the order a tick-every-channel loop would use, so fault
// ledger ids come out identical. next_tick() tells the G-line system
// when the unit next has work without a register write.
//
// The managers take TokenTree::step, the clean unit's round-robin pass, so
// FIFO-per-level fairness is preserved exactly as in the baseline units
// for as long as the hardware serves grants. Mutual exclusion is asserted
// structurally: a token acceptance while another leaf holds trips a
// GLOCKS_CHECK.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "common/word_bitset.hpp"
#include "core/thread.hpp"
#include "fault/fault.hpp"
#include "gline/framed_link.hpp"
#include "gline/gline.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

class GuardedGlockUnit {
 public:
  /// One channel per edge of `tree` (shared with the other units built
  /// on it); a co-located edge's channel is free wiring.
  GuardedGlockUnit(GlockId glock, std::shared_ptr<const TokenTree> tree,
                   const FaultConfig& cfg, fault::FaultInjector* injector,
                   fault::GlockHealth* health,
                   std::vector<glocks::core::LockRegisters*> regs);

  void tick(Cycle now);

  /// The next cycle on which tick() has work that no register write
  /// announces: a channel deadline, a channel sent to, a manager that
  /// acts again next cycle, or the register flush right after demotion.
  /// kNoCycle when only a register write can give the unit work.
  Cycle next_tick() const { return next_tick_; }

  const GlineStats& stats() const { return stats_; }
  std::optional<CoreId> holder() const;
  bool idle() const;
  bool failing() const { return failing_; }
  bool demoted() const { return demoted_; }

  /// Multi-line controller/flag/token dump for the hang diagnostic.
  std::string debug_dump() const;

  /// Checkpoint: leaf FSMs, channels, manager flags/token state, holder
  /// count, failing/demoted flags, stats. The live set and deadlines are
  /// derived and stay out of the archive.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kWaiting, kHolding };

  void tick_leaf(CoreId c);
  void tick_mgr(std::uint32_t n);
  void try_demote();
  void flush_registers();

  GlockId glock_;
  std::shared_ptr<const TokenTree> tree_;
  fault::FaultInjector* injector_;
  fault::GlockHealth* health_;
  std::vector<glocks::core::LockRegisters*> regs_;
  std::vector<LcState> lcs_;  ///< one leaf controller per core
  std::vector<TokenManager> mgrs_;
  /// One channel per vertex's edge, end 0 at the vertex: leaves in leaf
  /// order, then manager up-links in level order — the tick order.
  std::vector<std::unique_ptr<FramedChannel>> channels_;
  common::WordBitset live_;  ///< channels to tick on the next tick
  std::vector<Cycle> due_;   ///< per channel: its next_event()
  Cycle next_tick_ = 0;
  std::uint32_t holder_count_ = 0;
  bool failing_ = false;
  bool demoted_ = false;
  GlineStats stats_;
};

}  // namespace glocks::gline
