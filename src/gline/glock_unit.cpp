#include "gline/glock_unit.hpp"

#include "common/check.hpp"

namespace glocks::gline {

GlockUnit::GlockUnit(GlockId glock, std::uint32_t num_cores,
                     std::uint32_t mesh_width, Cycle signal_latency,
                     std::vector<glocks::core::LockRegisters*> regs)
    : GlockUnit(glock,
                std::make_shared<const TokenTree>(TokenTree::flat(
                    num_cores, mesh_width, signal_latency)),
                std::move(regs)) {}

GlockUnit::GlockUnit(GlockId glock, std::shared_ptr<const TokenTree> tree,
                     std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock),
      tree_(std::move(tree)),
      regs_(std::move(regs)),
      lcs_(tree_->num_leaves(), LcState::kIdle),
      up_(tree_->make_wires()),
      down_(tree_->make_wires()),
      mgrs_(tree_->make_managers()) {
  GLOCKS_CHECK(regs_.size() == tree_->num_leaves(),
               "one register file per core");
}

void GlockUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  if (w.is_gline()) {
    ++stats_.signals;
  } else {
    ++stats_.local_flags;
  }
}

void GlockUnit::tick_local(CoreId c, Cycle now) {
  auto& regs = *regs_[c];
  switch (lcs_[c]) {
    case LcState::kIdle:
      if (regs.req[glock_]) {
        record_pulse(up_[c], now);  // REQ
        lcs_[c] = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (down_[c].poll(now)) {  // TOKEN
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        record_pulse(up_[c], now);  // REL
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kIdle;
        ++stats_.releases;
      }
      break;
  }
}

void GlockUnit::tick_manager(std::uint32_t n, Cycle now) {
  TokenManager& m = mgrs_[n];
  // Absorb this cycle's pulses from the children. The flag toggles:
  // 0 -> 1 records a REQ, 1 -> 0 a REL (paper Section III-D).
  const auto& kids = tree_->children(n);
  for (std::uint32_t i = 0; i < kids.size(); ++i) {
    if (up_[kids[i]].poll(now)) {
      m.fx[i] = !m.fx[i];
      if (!m.fx[i]) {
        GLOCKS_CHECK(m.granted == static_cast<int>(i),
                     "REL from vertex " << kids[i]
                                        << " which does not hold the lock");
        m.granted = -1;  // the holder released; schedule the next one
      }
    }
  }
  const std::uint32_t self = tree_->num_leaves() + n;
  if (n != tree_->root() && down_[self].poll(now)) {  // TOKEN from above
    GLOCKS_CHECK(!m.has_token, "duplicate token at node " << n);
    m.has_token = true;
    m.granted = -1;
  }
  const TokenTree::Action a = tree_->step(n, m, stats_);
  if (a.send == TokenTree::Send::kToken) {
    record_pulse(down_[a.vertex], now);
  } else if (a.send != TokenTree::Send::kNothing) {
    record_pulse(up_[a.vertex], now);  // REQ or REL: a toggle either way
  }
}

void GlockUnit::tick(Cycle now) {
  for (CoreId c = 0; c < lcs_.size(); ++c) tick_local(c, now);
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) tick_manager(n, now);
}

std::optional<CoreId> GlockUnit::holder() const {
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kHolding) return c;
  }
  return std::nullopt;
}

bool GlockUnit::dormant() const {
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    if (!up_[v].idle() || !down_[v].idle()) return false;
  }
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    const auto& regs = *regs_[c];
    if (lcs_[c] == LcState::kIdle && regs.req[glock_]) return false;
    if (lcs_[c] == LcState::kHolding && regs.rel[glock_]) return false;
  }
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) {
    if (tree_->acts(n, mgrs_[n])) return false;
  }
  return true;
}

bool GlockUnit::idle() const {
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    if (!up_[v].idle() || !down_[v].idle()) return false;
  }
  for (const LcState s : lcs_) {
    if (s != LcState::kIdle) return false;
  }
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) {
    if (!tree_->at_rest(n, mgrs_[n])) return false;
  }
  return true;
}

// ---- checkpoint ----

void GlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LcState s : lcs_) a.u8(static_cast<std::uint8_t>(s));
  a.u32(static_cast<std::uint32_t>(up_.size()));
  for (std::uint32_t v = 0; v < up_.size(); ++v) {
    up_[v].save(a);
    down_[v].save(a);
  }
  a.u32(static_cast<std::uint32_t>(mgrs_.size()));
  for (const TokenManager& m : mgrs_) save_token_manager(a, m);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
