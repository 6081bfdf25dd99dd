// G-line barrier network: the companion mechanism of the authors' prior
// work (Abellán et al., ICPP 2010, cited as [22]), which the GLocks paper
// builds on. Reproduced here because the evaluation's workloads rely on
// barriers, and a hardware barrier is the natural ablation partner for
// the software tree barrier.
//
// Topology is the GLock network's TokenTree: on the flat tree, per-row
// aggregation at a secondary node and global aggregation at a root node,
// all over 1-bit G-lines. The protocol is a pure AND-tree:
//
//   arrive:  core sets its barrier_arrive register; the local controller
//            pulses its aggregator; when an aggregator has collected all
//            of its children it pulses its parent.
//   release: when the root has collected all children it pulses each
//            one, and every aggregator broadcasts a release to its own
//            children (G-lines support broadcast, Ito et al.), clearing
//            the cores' barrier_wait registers.
//
// Latency: 4 signal cycles root-trip + register pickup, independent of
// the number of participating cores — versus Theta(log N) cache-miss
// round-trips for the software combining tree.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/thread.hpp"
#include "gline/gline.hpp"
#include "gline/token_tree.hpp"

namespace glocks::gline {

struct GBarrierStats {
  std::uint64_t episodes = 0;
  std::uint64_t signals = 0;
  std::uint64_t local_flags = 0;
};

class GBarrierUnit {
 public:
  /// `regs[c]` are core c's barrier registers; `unit` selects which
  /// arrive/wait pair belongs to this barrier. `tree` is shared with the
  /// lock units built on it.
  GBarrierUnit(std::uint32_t unit, std::shared_ptr<const TokenTree> tree,
               std::vector<glocks::core::BarrierRegisters*> regs);

  void tick(Cycle now);

  const GBarrierStats& stats() const { return stats_; }
  std::uint32_t num_glines() const { return tree_->num_glines(); }
  bool idle() const;

  /// True when a tick would change nothing: no pulse in flight and no
  /// controller/aggregator with an actionable input. A partially-arrived
  /// barrier is dormant; the next core's arrive-register write wakes the
  /// G-line system. Used by the event-driven kernel only.
  bool dormant() const;

  /// Checkpoint: controller FSMs, wires, aggregation state, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  enum class LcState : std::uint8_t { kIdle, kArrived };

  struct Aggregator {
    std::uint32_t arrived = 0;
    bool reported = false;  ///< all-arrived pulse sent to the parent
  };

  void record_pulse(Wire& w, Cycle now);
  void release_children(std::uint32_t n, Cycle now);

  std::uint32_t unit_;
  std::shared_ptr<const TokenTree> tree_;
  std::vector<glocks::core::BarrierRegisters*> regs_;
  std::vector<LcState> lcs_;  ///< one local controller per core
  std::vector<Wire> up_;      ///< per vertex: arrival towards its parent
  std::vector<Wire> down_;    ///< per vertex: release back
  std::vector<Aggregator> aggs_;  ///< per tree node, root last
  GBarrierStats stats_;
};

}  // namespace glocks::gline
