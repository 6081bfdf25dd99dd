#include "gline/gbarrier_unit.hpp"

#include "common/check.hpp"

namespace glocks::gline {

GBarrierUnit::GBarrierUnit(std::uint32_t unit,
                           std::shared_ptr<const TokenTree> tree,
                           std::vector<glocks::core::BarrierRegisters*> regs)
    : unit_(unit),
      tree_(std::move(tree)),
      regs_(std::move(regs)),
      lcs_(tree_->num_leaves(), LcState::kIdle),
      up_(tree_->make_wires()),
      down_(tree_->make_wires()),
      aggs_(tree_->num_nodes()) {
  GLOCKS_CHECK(regs_.size() == tree_->num_leaves(),
               "one register file per core");
}

void GBarrierUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  if (w.is_gline()) {
    ++stats_.signals;
  } else {
    ++stats_.local_flags;
  }
}

void GBarrierUnit::release_children(std::uint32_t n, Cycle now) {
  // Broadcast to every child (multi-drop G-line).
  for (const std::uint32_t v : tree_->children(n)) {
    record_pulse(down_[v], now);
  }
  aggs_[n].arrived = 0;
  aggs_[n].reported = false;
}

void GBarrierUnit::tick(Cycle now) {
  // Local controllers: consume arrive registers, deliver releases.
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    auto& regs = *regs_[c];
    switch (lcs_[c]) {
      case LcState::kIdle:
        if (regs.arrive[unit_]) {
          regs.arrive[unit_] = false;
          record_pulse(up_[c], now);
          lcs_[c] = LcState::kArrived;
        }
        break;
      case LcState::kArrived:
        if (down_[c].poll(now)) {
          regs.wait[unit_] = false;  // unblocks the core's register spin
          if (regs.owner != nullptr) regs.owner->wake();
          lcs_[c] = LcState::kIdle;
        }
        break;
    }
  }

  // Aggregators in level order: count arrivals, report upward, fan
  // releases out; the root releases once every child has reported.
  for (std::uint32_t n = 0; n < aggs_.size(); ++n) {
    Aggregator& g = aggs_[n];
    const auto& kids = tree_->children(n);
    for (const std::uint32_t v : kids) {
      if (up_[v].poll(now)) ++g.arrived;
    }
    GLOCKS_CHECK(g.arrived <= kids.size(), "barrier node over-subscribed");
    const bool all = g.arrived == kids.size();
    if (n == tree_->root()) {
      if (all) {
        ++stats_.episodes;
        release_children(n, now);
      }
      continue;
    }
    const std::uint32_t self = tree_->num_leaves() + n;
    if (!g.reported && all) {
      record_pulse(up_[self], now);
      g.reported = true;
    }
    if (down_[self].poll(now)) release_children(n, now);
  }
}

bool GBarrierUnit::dormant() const {
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    if (!up_[v].idle() || !down_[v].idle()) return false;
  }
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kIdle && regs_[c]->arrive[unit_]) return false;
  }
  for (std::uint32_t n = 0; n < aggs_.size(); ++n) {
    const bool all = aggs_[n].arrived == tree_->children(n).size();
    if (all && !aggs_[n].reported) return false;  // reports or releases
  }
  return true;
}

bool GBarrierUnit::idle() const {
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    if (!up_[v].idle() || !down_[v].idle()) return false;
  }
  for (const LcState s : lcs_) {
    if (s != LcState::kIdle) return false;
  }
  for (const Aggregator& g : aggs_) {
    if (g.arrived != 0 || g.reported) return false;
  }
  return true;
}

// ---- checkpoint ----

void GBarrierUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LcState s : lcs_) a.u8(static_cast<std::uint8_t>(s));
  a.u32(static_cast<std::uint32_t>(up_.size()));
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    up_[v].save(a);
    down_[v].save(a);
  }
  a.u32(static_cast<std::uint32_t>(aggs_.size()));
  for (const Aggregator& g : aggs_) {
    a.u32(g.arrived);
    a.b(g.reported);
  }
  a.u64(stats_.episodes);
  a.u64(stats_.signals);
  a.u64(stats_.local_flags);
}

}  // namespace glocks::gline
