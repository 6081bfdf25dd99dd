// Hierarchical GLock network: the second scaling path of paper Section V
// ("different groups of G-line-based networks linked together through
// additional G-lines"), as a GlockUnit over TokenTree::reach_bounded with
// nothing co-located. Wires = vertices - 1; worst-case acquire latency is
// 2 * depth signal cycles, growing logarithmically with core count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gline/glock_unit.hpp"

namespace glocks::gline {

class HierGlockUnit : public GlockUnit {
 public:
  /// `reach` — max children per node (transmitters per shared segment;
  /// the paper's technology supports 6 transmitters + 1 receiver).
  HierGlockUnit(GlockId glock, std::uint32_t num_cores, Cycle signal_latency,
                std::uint32_t reach,
                std::vector<glocks::core::LockRegisters*> regs)
      : GlockUnit(glock,
                  std::make_shared<const TokenTree>(TokenTree::reach_bounded(
                      num_cores, reach, signal_latency, false)),
                  std::move(regs)) {}
};

}  // namespace glocks::gline
