#include "gline/guarded_glock_unit.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace glocks::gline {

GuardedGlockUnit::GuardedGlockUnit(
    GlockId glock, std::uint32_t num_cores, std::uint32_t group,
    bool hierarchical, Cycle signal_latency, const FaultConfig& cfg,
    fault::FaultInjector* injector, fault::GlockHealth* health,
    std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock),
      cfg_(cfg),
      injector_(injector),
      health_(health),
      regs_(std::move(regs)) {
  GLOCKS_CHECK(regs_.size() == num_cores, "one register file per core");
  GLOCKS_CHECK(group >= 2, "guarded unit needs a group size of at least 2");
  GLOCKS_CHECK(injector_ != nullptr && health_ != nullptr,
               "guarded unit needs an injector and a health board");

  leaves_.resize(num_cores);
  leaf_mgr_.resize(num_cores);
  leaf_slot_.resize(num_cores);

  // Build manager levels bottom-up like HierGlockUnit; in flat mode the
  // second level collapses to a single root over all row managers.
  std::uint32_t prev_count = num_cores;
  std::uint32_t prev_first = 0;
  bool prev_is_cores = true;
  std::uint32_t span = group;
  while (true) {
    const std::uint32_t count = (prev_count + span - 1) / span;
    const std::uint32_t first = static_cast<std::uint32_t>(mgrs_.size());
    for (std::uint32_t n = 0; n < count; ++n) {
      mgrs_.emplace_back();
      Mgr& m = mgrs_.back();
      m.leaf_level = prev_is_cores;
      const std::uint32_t lo = n * span;
      const std::uint32_t hi = std::min(prev_count, lo + span);
      const std::uint32_t local_slot = (hi - lo) / 2;  // co-located child
      for (std::uint32_t i = lo; i < hi; ++i) {
        const std::uint32_t slot = i - lo;
        const bool local = slot == local_slot;
        auto ch = std::make_unique<FramedChannel>(signal_latency, local,
                                                  cfg_, injector_, &stats_);
        num_glines_ += ch->num_glines();
        if (prev_is_cores) {
          Leaf& lf = leaves_[i];
          lf.core = i;
          lf.ch = std::move(ch);
          leaf_mgr_[i] = first + n;
          leaf_slot_[i] = slot;
          m.children.push_back(i);
        } else {
          mgrs_[prev_first + i].up = std::move(ch);
          m.children.push_back(prev_first + i);
        }
        m.fx.push_back(false);
      }
    }
    if (count == 1) {
      mgrs_.back().is_root = true;
      mgrs_.back().has_token = true;  // token parks at the root
      break;
    }
    prev_count = count;
    prev_first = first;
    prev_is_cores = false;
    if (!hierarchical) span = count;  // flat: one root over the rows
  }

  for (auto& lf : leaves_) channels_.push_back(lf.ch.get());
  for (auto& m : mgrs_) {
    if (m.up) channels_.push_back(m.up.get());
  }
  live_.resize(channels_.size());  // sized once: channels hold its words
  due_.resize(channels_.size());    // every channel due at cycle 0
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->set_live_bit(live_.word(i), common::WordBitset::mask(i));
  }
}

FramedChannel& GuardedGlockUnit::child_channel(Mgr& m, std::uint32_t i) {
  return m.leaf_level ? *leaves_[m.children[i]].ch
                      : *mgrs_[m.children[i]].up;
}

const FramedChannel& GuardedGlockUnit::child_channel(
    const Mgr& m, std::uint32_t i) const {
  return m.leaf_level ? *leaves_[m.children[i]].ch
                      : *mgrs_[m.children[i]].up;
}

void GuardedGlockUnit::tick_leaf(Leaf& lf, Cycle now) {
  auto& regs = *regs_[lf.core];
  Sym s;
  switch (lf.state) {
    case LcState::kIdle:
      // While failing, leave new requests parked in the registers: the
      // drain must not create fresh claims on the token, and after
      // demotion the register flush (plus the ResilientGlock reroute)
      // serves them in software.
      if (regs.req[glock_] && !failing_) {
        lf.ch->send(0, Sym::kReq);
        lf.state = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (lf.ch->recv(0, s)) {
        GLOCKS_CHECK(s == Sym::kToken,
                     "leaf " << lf.core << " expected TOKEN, got "
                             << to_string(s));
        GLOCKS_CHECK(holder_count_ == 0,
                     "double token grant: core " << lf.core
                                                 << " granted while held");
        ++holder_count_;
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        lf.state = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        lf.ch->send(0, Sym::kRel);
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        lf.state = LcState::kIdle;
        --holder_count_;
        ++stats_.releases;
      }
      break;
  }
  (void)now;
}

void GuardedGlockUnit::tick_mgr(Mgr& m) {
  // Absorb child symbols. Reliable delivery makes these exact (no toggle
  // ambiguity): a REQ always means "child wants the token".
  Sym s;
  for (std::uint32_t i = 0; i < m.children.size(); ++i) {
    while (child_channel(m, i).recv(1, s)) {
      if (s == Sym::kReq) {
        GLOCKS_CHECK(!m.fx[i], "duplicate REQ reached a manager");
        m.fx[i] = true;
      } else {
        GLOCKS_CHECK(s == Sym::kRel, "manager got " << to_string(s)
                                                    << " from a child");
        GLOCKS_CHECK(m.granted == static_cast<int>(i),
                     "REL from a child that was not granted");
        m.fx[i] = false;
        m.granted = -1;
      }
    }
  }
  if (!m.is_root && m.up) {
    while (m.up->recv(0, s)) {
      GLOCKS_CHECK(s == Sym::kToken, "manager expected TOKEN");
      GLOCKS_CHECK(!m.has_token, "duplicate token at a manager");
      m.has_token = true;
      m.granted = -1;
    }
  }

  if (failing_) return;  // no new grants or requests during the drain

  const bool any_pending =
      std::find(m.fx.begin(), m.fx.end(), true) != m.fx.end();

  if (!m.has_token) {
    if (!m.is_root && !m.requested && any_pending) {
      m.up->send(0, Sym::kReq);
      m.requested = true;
    }
    return;
  }
  if (m.granted != -1) return;

  // Round-robin pass over pending children (baseline policy).
  for (std::uint32_t p = m.pos; p < m.children.size(); ++p) {
    if (m.fx[p]) {
      m.granted = static_cast<int>(p);
      m.pos = p + 1;
      child_channel(m, p).send(1, Sym::kToken);
      return;
    }
  }
  m.pos = 0;
  if (m.is_root) return;  // the root keeps the token parked
  m.has_token = false;
  m.requested = false;
  ++stats_.secondary_passes;
  m.up->send(0, Sym::kRel);
}

bool GuardedGlockUnit::mgr_settled(const Mgr& m) const {
  if (failing_) return true;
  const bool any_pending =
      std::find(m.fx.begin(), m.fx.end(), true) != m.fx.end();
  if (!m.has_token) return m.is_root || m.requested || !any_pending;
  // A holder with nothing granted grants, resets its round-robin cursor
  // or (below the root) passes the token up on its next pass.
  return m.granted != -1 || (m.is_root && m.pos == 0 && !any_pending);
}

void GuardedGlockUnit::try_demote(Cycle now) {
  // Demotion is safe only once no leaf holds the token and no granted
  // token can still arrive on a live channel — a token landing after the
  // software fallback takes over would mean two lock owners.
  for (const auto& lf : leaves_) {
    if (lf.state == LcState::kHolding) return;
    if (lf.state == LcState::kWaiting) {
      const Mgr& m = mgrs_[leaf_mgr_[lf.core]];
      const bool token_may_arrive =
          m.granted == static_cast<int>(leaf_slot_[lf.core]) &&
          !lf.ch->dead();
      if (token_may_arrive) return;
    }
  }
  demoted_ = true;
  health_->demoted[glock_] = 1;
  injector_->counter(&fault::FaultStats::fallback_demotions)++;
  for (auto& lf : leaves_) lf.state = LcState::kIdle;
  (void)now;
}

void GuardedGlockUnit::flush_registers() {
  // The hardware is out of the loop: complete every register handshake
  // immediately so core spins never wedge. The ResilientGlock wrapper
  // observes the demoted flag and takes the software lock instead, so
  // these "grants" confer no exclusive ownership.
  for (auto* regs : regs_) {
    const bool pending = regs->req[glock_] || regs->rel[glock_];
    regs->req[glock_] = false;
    regs->rel[glock_] = false;
    if (pending && regs->owner != nullptr) regs->owner->wake();
  }
}

void GuardedGlockUnit::tick(Cycle now) {
  if (demoted_) {
    flush_registers();
    next_tick_ = kNoCycle;  // from here on only register writes matter
    return;
  }
  for (std::size_t i = 0; i < due_.size(); ++i) {
    if (due_[i] <= now) live_.set(i);
  }
  live_.for_each([this, now](std::size_t i) {
    FramedChannel& ch = *channels_[i];
    ch.tick(now);
    if (ch.dead()) failing_ = true;  // only a tick can kill a link
    due_[i] = ch.next_event(now);
    live_.reset(i);
  });
  for (auto& lf : leaves_) tick_leaf(lf, now);
  for (auto& m : mgrs_) tick_mgr(m);
  if (failing_) try_demote(now);

  next_tick_ = *std::min_element(due_.begin(), due_.end());
  // Sends marked channels live; a demotion still owes one flush.
  const bool again =
      demoted_ || !live_.none() ||
      std::any_of(mgrs_.begin(), mgrs_.end(),
                  [this](const Mgr& m) { return !mgr_settled(m); });
  if (again) next_tick_ = now + 1;
}

std::optional<CoreId> GuardedGlockUnit::holder() const {
  for (const auto& lf : leaves_) {
    if (lf.state == LcState::kHolding) return lf.core;
  }
  return std::nullopt;
}

bool GuardedGlockUnit::idle() const {
  if (demoted_) return true;  // software owns the lock from here on
  for (const auto& lf : leaves_) {
    if (lf.state != LcState::kIdle || !lf.ch->idle()) return false;
  }
  for (const auto& m : mgrs_) {
    if (m.up && !m.up->idle()) return false;
    if (m.requested || (m.has_token && !m.is_root) || m.granted != -1) {
      return false;
    }
    for (const bool f : m.fx) {
      if (f) return false;
    }
  }
  return true;
}

std::string GuardedGlockUnit::debug_dump() const {
  std::ostringstream oss;
  oss << "glock " << glock_ << (demoted_ ? " [demoted]" : "")
      << (failing_ && !demoted_ ? " [failing/draining]" : "") << "\n";
  oss << "  leaves:";
  for (const auto& lf : leaves_) {
    const char* st = lf.state == LcState::kIdle
                         ? "I"
                         : lf.state == LcState::kWaiting ? "W" : "H";
    oss << " " << lf.core << ":" << st << (lf.ch->dead() ? "!" : "");
  }
  oss << "\n";
  for (std::size_t n = 0; n < mgrs_.size(); ++n) {
    const Mgr& m = mgrs_[n];
    oss << "  mgr " << n << (m.is_root ? " (root)" : "") << " token="
        << (m.has_token ? "yes" : "no") << " granted=" << m.granted
        << " req=" << (m.requested ? "yes" : "no")
        << (m.up && m.up->dead() ? " up-link=DEAD" : "") << " fx=[";
    for (std::size_t i = 0; i < m.fx.size(); ++i) {
      oss << (i ? "," : "") << (m.fx[i] ? 1 : 0);
    }
    oss << "]\n";
  }
  return oss.str();
}

// ---- checkpoint ----

void GuardedGlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(leaves_.size()));
  for (const Leaf& lf : leaves_) {
    a.u8(static_cast<std::uint8_t>(lf.state));
    lf.ch->save(a);
  }
  a.u32(static_cast<std::uint32_t>(mgrs_.size()));
  for (const Mgr& m : mgrs_) {
    a.u32(static_cast<std::uint32_t>(m.fx.size()));
    for (bool f : m.fx) a.b(f);
    a.b(m.up != nullptr);
    if (m.up != nullptr) m.up->save(a);
    a.b(m.has_token);
    a.b(m.requested);
    a.i64(m.granted);
    a.u32(m.pos);
  }
  a.u32(holder_count_);
  a.b(failing_);
  a.b(demoted_);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
