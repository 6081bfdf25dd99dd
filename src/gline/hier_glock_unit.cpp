#include "gline/hier_glock_unit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {

HierGlockUnit::HierGlockUnit(GlockId glock, std::uint32_t num_cores,
                             Cycle signal_latency, std::uint32_t reach,
                             std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock), regs_(std::move(regs)) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  GLOCKS_CHECK(reach >= 2, "hierarchy needs a reach of at least 2");

  lcs_.reserve(num_cores);
  for (CoreId c = 0; c < num_cores; ++c) {
    lcs_.emplace_back(c, signal_latency);
    ++num_glines_;  // every leaf has a wire to its segment manager
  }

  // Build levels bottom-up: group the previous level's units (cores at
  // level 0) into nodes of at most `reach` children.
  std::uint32_t prev_count = num_cores;
  std::uint32_t prev_first = 0;  // index of the previous level in nodes_
  bool prev_is_cores = true;
  while (true) {
    const std::uint32_t count = (prev_count + reach - 1) / reach;
    const std::uint32_t first =
        static_cast<std::uint32_t>(nodes_.size());
    for (std::uint32_t n = 0; n < count; ++n) {
      nodes_.emplace_back(signal_latency);
      Node& node = nodes_.back();
      node.leaf_level = prev_is_cores;
      const std::uint32_t lo = n * reach;
      const std::uint32_t hi = std::min(prev_count, lo + reach);
      for (std::uint32_t i = lo; i < hi; ++i) {
        node.children.push_back(prev_is_cores ? i : prev_first + i);
        node.fx.push_back(false);
      }
    }
    ++depth_;
    if (count == 1) {
      nodes_.back().is_root = true;
      nodes_.back().has_token = true;  // token parks at the root
      break;
    }
    num_glines_ += count;  // each node has one wire to its parent
    prev_count = count;
    prev_first = first;
    prev_is_cores = false;
  }
}

void HierGlockUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  ++stats_.signals;
}

Wire& HierGlockUnit::child_up(Node& n, std::uint32_t i) {
  return n.leaf_level ? lcs_[n.children[i]].up : nodes_[n.children[i]].up;
}

Wire& HierGlockUnit::child_down(Node& n, std::uint32_t i) {
  return n.leaf_level ? lcs_[n.children[i]].down
                      : nodes_[n.children[i]].down;
}

void HierGlockUnit::tick_node(Node& n, Cycle now) {
  // Absorb child pulses: toggle semantics (0->1 REQ, 1->0 REL).
  for (std::uint32_t i = 0; i < n.children.size(); ++i) {
    if (child_up(n, i).poll(now)) {
      n.fx[i] = !n.fx[i];
      if (!n.fx[i]) {
        GLOCKS_CHECK(n.granted == static_cast<int>(i),
                     "REL from a child that was not granted");
        n.granted = -1;
      }
    }
  }
  if (!n.is_root && n.down.poll(now)) {
    GLOCKS_CHECK(!n.has_token, "duplicate token at a hierarchy node");
    n.has_token = true;
    n.granted = -1;
  }

  const bool any_pending =
      std::find(n.fx.begin(), n.fx.end(), true) != n.fx.end();

  if (!n.has_token) {
    if (!n.is_root && !n.requested && any_pending) {
      record_pulse(n.up, now);  // REQ towards the parent
      n.requested = true;
    }
    return;
  }
  if (n.granted != -1) return;

  // Round-robin pass over pending children.
  for (std::uint32_t p = n.pos; p < n.children.size(); ++p) {
    if (n.fx[p]) {
      n.granted = static_cast<int>(p);
      n.pos = p + 1;
      record_pulse(child_down(n, p), now);  // TOKEN
      return;
    }
  }
  // Pass complete.
  n.pos = 0;
  if (n.is_root) return;  // the root keeps the token parked
  n.has_token = false;
  n.requested = false;
  ++stats_.secondary_passes;
  record_pulse(n.up, now);  // REL towards the parent
}

void HierGlockUnit::tick(Cycle now) {
  // Leaf controllers first, then managers bottom-up (nodes_ is stored in
  // level order, so a plain sweep is bottom-up).
  for (auto& lc : lcs_) {
    auto& regs = *regs_[lc.core];
    switch (lc.state) {
      case LcState::kIdle:
        if (regs.req[glock_]) {
          record_pulse(lc.up, now);
          lc.state = LcState::kWaiting;
        }
        break;
      case LcState::kWaiting:
        if (lc.down.poll(now)) {
          regs.req[glock_] = false;
          if (regs.owner != nullptr) regs.owner->wake();
          lc.state = LcState::kHolding;
          ++stats_.acquires_granted;
        }
        break;
      case LcState::kHolding:
        if (regs.rel[glock_]) {
          record_pulse(lc.up, now);
          regs.rel[glock_] = false;
          if (regs.owner != nullptr) regs.owner->wake();
          lc.state = LcState::kIdle;
          ++stats_.releases;
        }
        break;
    }
  }
  for (auto& n : nodes_) tick_node(n, now);
}

std::optional<CoreId> HierGlockUnit::holder() const {
  for (const auto& lc : lcs_) {
    if (lc.state == LcState::kHolding) return lc.core;
  }
  return std::nullopt;
}

bool HierGlockUnit::dormant() const {
  for (const auto& lc : lcs_) {
    if (!lc.up.idle() || !lc.down.idle()) return false;
    const auto& regs = *regs_[lc.core];
    if (lc.state == LcState::kIdle && regs.req[glock_]) return false;
    if (lc.state == LcState::kHolding && regs.rel[glock_]) return false;
  }
  for (const auto& n : nodes_) {
    if (!n.up.idle() || !n.down.idle()) return false;
    const bool any_pending =
        std::find(n.fx.begin(), n.fx.end(), true) != n.fx.end();
    if (n.has_token && n.granted == -1) {
      // A free-to-schedule non-root either grants or returns the token
      // next tick. The root only acts when a flag is pending — but a
      // stale scan position still gets reset by the next tick.
      if (!n.is_root || any_pending || n.pos != 0) return false;
    }
    if (!n.has_token && !n.requested && any_pending) return false;
  }
  return true;
}

bool HierGlockUnit::idle() const {
  for (const auto& lc : lcs_) {
    if (lc.state != LcState::kIdle || !lc.up.idle() || !lc.down.idle()) {
      return false;
    }
  }
  for (const auto& n : nodes_) {
    if (!n.up.idle() || !n.down.idle() || n.requested ||
        (n.has_token && !n.is_root) || n.granted != -1) {
      return false;
    }
    for (const bool f : n.fx) {
      if (f) return false;
    }
  }
  return true;
}

// ---- checkpoint ----

void HierGlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LocalCtl& lc : lcs_) {
    a.u8(static_cast<std::uint8_t>(lc.state));
    lc.up.save(a);
    lc.down.save(a);
  }
  a.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    a.u32(static_cast<std::uint32_t>(n.fx.size()));
    for (bool f : n.fx) a.b(f);
    n.up.save(a);
    n.down.save(a);
    a.b(n.has_token);
    a.b(n.requested);
    a.i64(n.granted);
    a.u32(n.pos);
  }
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
