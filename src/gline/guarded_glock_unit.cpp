#include "gline/guarded_glock_unit.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace glocks::gline {

GuardedGlockUnit::GuardedGlockUnit(
    GlockId glock, std::shared_ptr<const TokenTree> tree,
    const FaultConfig& cfg, fault::FaultInjector* injector,
    fault::GlockHealth* health,
    std::vector<glocks::core::LockRegisters*> regs)
    : glock_(glock),
      tree_(std::move(tree)),
      injector_(injector),
      health_(health),
      regs_(std::move(regs)),
      lcs_(tree_->num_leaves(), LcState::kIdle),
      mgrs_(tree_->make_managers()) {
  GLOCKS_CHECK(regs_.size() == tree_->num_leaves(),
               "one register file per core");
  GLOCKS_CHECK(injector_ != nullptr && health_ != nullptr,
               "guarded unit needs an injector and a health board");
  // Built in vertex order, so the injector numbers the wires in the order
  // a level-by-level construction would.
  for (std::uint32_t v = 0; v < tree_->num_edges(); ++v) {
    const TokenTree::Edge& e = tree_->edge(v);
    channels_.push_back(std::make_unique<FramedChannel>(
        e.latency, e.colocated, cfg, injector_, &stats_));
  }
  live_.resize(channels_.size());  // sized once: channels hold its words
  due_.resize(channels_.size());    // every channel due at cycle 0
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->set_live_bit(live_.word(i), common::WordBitset::mask(i));
  }
}

void GuardedGlockUnit::tick_leaf(CoreId c) {
  auto& regs = *regs_[c];
  FramedChannel& ch = *channels_[c];
  Sym s;
  switch (lcs_[c]) {
    case LcState::kIdle:
      // While failing, leave new requests parked in the registers: the
      // drain must not create fresh claims on the token, and after
      // demotion the register flush (plus the ResilientGlock reroute)
      // serves them in software.
      if (regs.req[glock_] && !failing_) {
        ch.send(0, Sym::kReq);
        lcs_[c] = LcState::kWaiting;
      }
      break;
    case LcState::kWaiting:
      if (ch.recv(0, s)) {
        GLOCKS_CHECK(s == Sym::kToken,
                     "leaf " << c << " expected TOKEN, got " << to_string(s));
        GLOCKS_CHECK(holder_count_ == 0,
                     "double token grant: core " << c << " granted while held");
        ++holder_count_;
        regs.req[glock_] = false;  // unblocks the core's register spin
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kHolding;
        ++stats_.acquires_granted;
      }
      break;
    case LcState::kHolding:
      if (regs.rel[glock_]) {
        ch.send(0, Sym::kRel);
        regs.rel[glock_] = false;
        if (regs.owner != nullptr) regs.owner->wake();
        lcs_[c] = LcState::kIdle;
        --holder_count_;
        ++stats_.releases;
      }
      break;
  }
}

void GuardedGlockUnit::tick_mgr(std::uint32_t n) {
  TokenManager& m = mgrs_[n];
  // Absorb child symbols. Reliable delivery makes these exact (no toggle
  // ambiguity): a REQ always means "child wants the token".
  Sym s;
  const auto& kids = tree_->children(n);
  for (std::uint32_t i = 0; i < kids.size(); ++i) {
    while (channels_[kids[i]]->recv(1, s)) {
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
  if (n != tree_->root()) {
    while (channels_[tree_->num_leaves() + n]->recv(0, s)) {
      GLOCKS_CHECK(s == Sym::kToken, "manager expected TOKEN");
      GLOCKS_CHECK(!m.has_token, "duplicate token at a manager");
      m.has_token = true;
      m.granted = -1;
    }
  }

  if (failing_) return;  // no new grants or requests during the drain

  const TokenTree::Action a = tree_->step(n, m, stats_);
  switch (a.send) {
    case TokenTree::Send::kNothing:
      break;
    case TokenTree::Send::kReq:
      channels_[a.vertex]->send(0, Sym::kReq);
      break;
    case TokenTree::Send::kToken:
      channels_[a.vertex]->send(1, Sym::kToken);
      break;
    case TokenTree::Send::kRel:
      channels_[a.vertex]->send(0, Sym::kRel);
      break;
  }
}

void GuardedGlockUnit::try_demote() {
  // Demotion is safe only once no leaf holds the token and no granted
  // token can still arrive on a live channel — a token landing after the
  // software fallback takes over would mean two lock owners.
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kHolding) return;
    if (lcs_[c] == LcState::kWaiting) {
      const TokenTree::Edge& e = tree_->edge(c);
      const bool token_may_arrive =
          mgrs_[e.manager].granted == static_cast<int>(e.slot) &&
          !channels_[c]->dead();
      if (token_may_arrive) return;
    }
  }
  demoted_ = true;
  health_->demoted[glock_] = 1;
  injector_->counter(&fault::FaultStats::fallback_demotions)++;
  lcs_.assign(lcs_.size(), LcState::kIdle);
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
  for (CoreId c = 0; c < lcs_.size(); ++c) tick_leaf(c);
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) tick_mgr(n);
  if (failing_) try_demote();

  next_tick_ = *std::min_element(due_.begin(), due_.end());
  // Sends marked channels live; a demotion still owes one flush, and a
  // manager whose round robin needs a second pass acts next cycle.
  bool again = demoted_ || !live_.none();
  for (std::uint32_t n = 0; n < mgrs_.size() && !again && !failing_; ++n) {
    again = tree_->acts(n, mgrs_[n]);
  }
  if (again) next_tick_ = now + 1;
}

std::optional<CoreId> GuardedGlockUnit::holder() const {
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    if (lcs_[c] == LcState::kHolding) return c;
  }
  return std::nullopt;
}

bool GuardedGlockUnit::idle() const {
  if (demoted_) return true;  // software owns the lock from here on
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  for (const LcState s : lcs_) {
    if (s != LcState::kIdle) return false;
  }
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) {
    if (!tree_->at_rest(n, mgrs_[n])) return false;
  }
  return true;
}

std::string GuardedGlockUnit::debug_dump() const {
  std::ostringstream oss;
  oss << "glock " << glock_ << (demoted_ ? " [demoted]" : "")
      << (failing_ && !demoted_ ? " [failing/draining]" : "") << "\n";
  oss << "  leaves:";
  for (CoreId c = 0; c < lcs_.size(); ++c) {
    const char* st = lcs_[c] == LcState::kIdle
                         ? "I"
                         : lcs_[c] == LcState::kWaiting ? "W" : "H";
    oss << " " << c << ":" << st << (channels_[c]->dead() ? "!" : "");
  }
  oss << "\n";
  for (std::uint32_t n = 0; n < mgrs_.size(); ++n) {
    const TokenManager& m = mgrs_[n];
    const bool root = n == tree_->root();
    oss << "  mgr " << n << (root ? " (root)" : "") << " token="
        << (m.has_token ? "yes" : "no") << " granted=" << m.granted
        << " req=" << (m.requested ? "yes" : "no")
        << (!root && channels_[tree_->num_leaves() + n]->dead()
                ? " up-link=DEAD"
                : "")
        << " fx=[";
    for (std::size_t i = 0; i < m.fx.size(); ++i) {
      oss << (i ? "," : "") << (m.fx[i] ? 1 : 0);
    }
    oss << "]\n";
  }
  return oss.str();
}

// ---- checkpoint ----

void GuardedGlockUnit::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(lcs_.size()));
  for (const LcState st : lcs_) a.u8(static_cast<std::uint8_t>(st));
  a.u32(static_cast<std::uint32_t>(channels_.size()));
  for (const auto& ch : channels_) ch->save(a);
  a.u32(static_cast<std::uint32_t>(mgrs_.size()));
  for (const TokenManager& m : mgrs_) save_token_manager(a, m);
  a.u32(holder_count_);
  a.b(failing_);
  a.b(demoted_);
  save_gline_stats(a, stats_);
}

}  // namespace glocks::gline
