#include "gline/glock_unit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace glocks::gline {

GlockUnit::GlockUnit(GlockId glock, std::uint32_t num_cores,
                     std::uint32_t mesh_width, Cycle signal_latency,
                     std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock), regs_(std::move(regs)) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  const std::uint32_t num_rows = (num_cores + mesh_width - 1) / mesh_width;
  const std::uint32_t r_row = num_rows / 2;  // primary manager's row

  // Row membership and the secondary manager placement (middle column).
  std::vector<std::uint32_t> s_col(num_rows);
  for (std::uint32_t r = 0; r < num_rows; ++r) {
    const std::uint32_t row_size =
        std::min(mesh_width, num_cores - r * mesh_width);
    s_col[r] = row_size / 2;
    const bool local = r == r_row;  // S co-located with R: internal flag
    rows_.emplace_back(signal_latency, local);
    if (!local) ++num_glines_;
  }
  fs_.assign(num_rows, false);

  lcs_.reserve(num_cores);
  for (CoreId c = 0; c < num_cores; ++c) {
    const std::uint32_t r = c / mesh_width;
    const std::uint32_t col = c % mesh_width;
    const bool local = col == s_col[r];  // LC folded into its manager
    lcs_.emplace_back(c, signal_latency, local);
    if (!local) ++num_glines_;
    rows_[r].members.push_back(c);
    rows_[r].fx.push_back(false);
  }
}

void GlockUnit::record_pulse(Wire& w, Cycle now) {
  w.pulse(now);
  if (w.is_gline()) {
    ++stats_.signals;
  } else {
    ++stats_.local_flags;
  }
}

void GlockUnit::tick_local(LocalCtl& lc, Cycle now) {
  auto& regs = *regs_[lc.core];
  switch (lc.state) {
    case LcState::kIdle:
      if (regs.req[glock_]) {
        record_pulse(lc.up, now);  // REQ
        lc.state = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (lc.down.poll(now)) {  // TOKEN
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        lc.state = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        record_pulse(lc.up, now);  // REL
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        lc.state = LcState::kIdle;
        ++stats_.releases;
      }
      break;
  }
}

void GlockUnit::tick_secondary(std::uint32_t row_idx, Cycle now) {
  Row& row = rows_[row_idx];

  // Absorb this cycle's pulses from the row's local controllers. The flag
  // toggles: 0 -> 1 records a REQ, 1 -> 0 a REL (paper Section III-D).
  for (std::uint32_t i = 0; i < row.members.size(); ++i) {
    if (lcs_[row.members[i]].up.poll(now)) {
      row.fx[i] = !row.fx[i];
      if (!row.fx[i]) {
        GLOCKS_CHECK(row.granted == static_cast<int>(i),
                     "REL from core " << row.members[i]
                                      << " which does not hold the lock");
        row.granted = -1;  // the holder released; schedule the next one
      }
    }
  }
  if (row.down.poll(now)) {  // TOKEN from the primary manager
    GLOCKS_CHECK(!row.has_token, "duplicate token at row " << row_idx);
    row.has_token = true;
    row.granted = -1;
  }

  const bool any_pending =
      std::find(row.fx.begin(), row.fx.end(), true) != row.fx.end();

  if (!row.has_token) {
    if (!row.requested && any_pending) {
      record_pulse(row.up, now);  // REQ towards R
      row.requested = true;
    }
    return;
  }
  if (row.granted != -1) return;  // a member holds (or grant in flight)

  // RoundRobin(): scan upward from the pass position; NULL past the end.
  for (std::uint32_t p = row.pos; p < row.members.size(); ++p) {
    if (row.fx[p]) {
      row.granted = static_cast<int>(p);
      row.pos = p + 1;
      record_pulse(lcs_[row.members[p]].down, now);  // TOKEN
      return;
    }
  }
  // Pass finished: hand the token back so other rows get their turn, even
  // if lower-index requests arrived meanwhile (global fairness).
  row.has_token = false;
  row.requested = false;
  row.pos = 0;
  ++stats_.secondary_passes;
  record_pulse(row.up, now);  // REL towards R
}

void GlockUnit::tick_primary(Cycle now) {
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].up.poll(now)) {
      fs_[r] = !fs_[r];
      if (!fs_[r]) {
        GLOCKS_CHECK(granted_row_ == static_cast<int>(r),
                     "token returned by row " << r << " which never had it");
        granted_row_ = -1;
        token_home_ = true;
      }
    }
  }
  if (!token_home_) return;

  // Circular round-robin across rows, resuming past the previous grant.
  const auto n = static_cast<std::uint32_t>(rows_.size());
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t p = (r_pos_ + k) % n;
    if (fs_[p]) {
      granted_row_ = static_cast<int>(p);
      r_pos_ = (p + 1) % n;
      token_home_ = false;
      record_pulse(rows_[p].down, now);  // TOKEN
      return;
    }
  }
}

void GlockUnit::tick(Cycle now) {
  for (auto& lc : lcs_) tick_local(lc, now);
  for (std::uint32_t r = 0; r < rows_.size(); ++r) tick_secondary(r, now);
  tick_primary(now);
}

std::optional<CoreId> GlockUnit::holder() const {
  for (const auto& lc : lcs_) {
    if (lc.state == LcState::kHolding) return lc.core;
  }
  return std::nullopt;
}

bool GlockUnit::dormant() const {
  for (const auto& lc : lcs_) {
    if (!lc.up.idle() || !lc.down.idle()) return false;
    const auto& regs = *regs_[lc.core];
    if (lc.state == LcState::kIdle && regs.req[glock_]) return false;
    if (lc.state == LcState::kHolding && regs.rel[glock_]) return false;
  }
  for (const auto& row : rows_) {
    if (!row.up.idle() || !row.down.idle()) return false;
    // A token-holding manager that is free to schedule will either grant
    // or hand the token back next tick; a token-less one with pending
    // flags will request it.
    if (row.has_token && row.granted == -1) return false;
    if (!row.has_token && !row.requested &&
        std::find(row.fx.begin(), row.fx.end(), true) != row.fx.end()) {
      return false;
    }
  }
  if (token_home_ &&
      std::find(fs_.begin(), fs_.end(), true) != fs_.end()) {
    return false;
  }
  return true;
}

bool GlockUnit::idle() const {
  for (const auto& lc : lcs_) {
    if (lc.state != LcState::kIdle || !lc.up.idle() || !lc.down.idle()) {
      return false;
    }
  }
  for (const auto& row : rows_) {
    if (row.has_token || row.requested || !row.up.idle() ||
        !row.down.idle()) {
      return false;
    }
    for (bool f : row.fx) {
      if (f) return false;
    }
  }
  return token_home_ && granted_row_ == -1;
}

// ---- checkpoint ----

void GlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LocalCtl& lc : lcs_) {
    a.u8(static_cast<std::uint8_t>(lc.state));
    lc.up.save(a);
    lc.down.save(a);
  }
  a.u32(static_cast<std::uint32_t>(rows_.size()));
  for (const Row& r : rows_) {
    a.u32(static_cast<std::uint32_t>(r.fx.size()));
    for (bool f : r.fx) a.b(f);
    r.up.save(a);
    r.down.save(a);
    a.b(r.has_token);
    a.b(r.requested);
    a.i64(r.granted);
    a.u32(r.pos);
  }
  a.u32(static_cast<std::uint32_t>(fs_.size()));
  for (bool f : fs_) a.b(f);
  a.b(token_home_);
  a.i64(granted_row_);
  a.u32(r_pos_);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
