// Unit tests of the fault-injection subsystem (src/fault) and the
// guarded G-line transport built on it: injector determinism and ledger
// reconciliation, --faults spec parsing, the wire double-drive invariant,
// reliable exactly-once delivery over lossy wires, link death after the
// retry budget, guarded-unit grants and demotion, the noise lookahead,
// recorded digests of the event-driven guarded units and of the clean
// units, and the structured hang diagnostic that replaced the bare
// cycle-limit abort.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "core/thread.hpp"
#include "fault/fault.hpp"
#include "gline/framed_link.hpp"
#include "gline/gline.hpp"
#include "gline/gline_system.hpp"
#include "gline/guarded_glock_unit.hpp"
#include "sim/engine.hpp"

namespace glocks {
namespace {

FaultConfig lossy_config(double rate) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.drop_rate = rate;
  cfg.garble_rate = rate;
  cfg.delay_rate = rate;
  cfg.noise_rate = rate / 4;
  return cfg;
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, FatesAreAPureFunctionOfSeedWireAndCycle) {
  const FaultConfig cfg = lossy_config(0.2);
  fault::FaultInjector a(cfg), b(cfg);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(a.register_wire(), b.register_wire());
  }
  for (Cycle t = 0; t < 500; ++t) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      const auto fa = a.judge_frame(w, t);
      const auto fb = b.judge_frame(w, t);
      EXPECT_EQ(fa.lost, fb.lost) << "wire " << w << " cycle " << t;
      EXPECT_EQ(fa.garbled, fb.garbled);
      EXPECT_EQ(fa.extra_delay, fb.extra_delay);
      EXPECT_EQ(a.noise_event_at(w, t) >= 0, b.noise_event_at(w, t) >= 0);
    }
  }
  for (std::size_t k = 0; k < fault::kNumFaultKinds; ++k) {
    EXPECT_EQ(a.stats().injected[k], b.stats().injected[k]);
  }
}

TEST(FaultInjector, FatesAreIndependentOfQueryOrder) {
  // The same (wire, cycle) must roll the same fate no matter when it is
  // asked — that is what makes fault runs replay identically even though
  // recovery changes which frames get sent.
  const FaultConfig cfg = lossy_config(0.3);
  fault::FaultInjector fwd(cfg), rev(cfg);
  fwd.register_wire();
  fwd.register_wire();
  rev.register_wire();
  rev.register_wire();
  struct Key {
    std::uint32_t w;
    Cycle t;
  };
  std::vector<Key> keys;
  for (Cycle t = 0; t < 64; ++t) {
    keys.push_back({0, t});
    keys.push_back({1, t});
  }
  std::vector<fault::FrameFate> ffwd, frev(keys.size());
  for (const auto& k : keys) ffwd.push_back(fwd.judge_frame(k.w, k.t));
  for (std::size_t i = keys.size(); i-- > 0;) {
    frev[i] = rev.judge_frame(keys[i].w, keys[i].t);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ffwd[i].lost, frev[i].lost) << i;
    EXPECT_EQ(ffwd[i].garbled, frev[i].garbled) << i;
    EXPECT_EQ(ffwd[i].extra_delay, frev[i].extra_delay) << i;
  }
}

TEST(FaultInjector, LedgerReconcilesAfterFinalize) {
  const FaultConfig cfg = lossy_config(0.4);
  fault::FaultInjector inj(cfg);
  inj.register_wire();
  std::uint64_t judged_drops = 0;
  for (Cycle t = 0; t < 400; ++t) {
    const auto fate = inj.judge_frame(0, t);
    if (fate.sender_event >= 0) {
      // Alternate the two legal fates of a dropped frame.
      if (++judged_drops % 2 == 0) {
        inj.on_detected({fate.sender_event}, t + 10);
      } else {
        inj.on_tolerated(fate.sender_event);
      }
    }
    if (fate.garble_event >= 0) inj.on_rx_discard(fate.garble_event, t + 2);
    // Delay events are left pending on purpose: finalize() must close
    // them as tolerated.
  }
  inj.finalize();
  const auto& s = inj.stats();
  EXPECT_GT(s.injected_total(), 0u);
  EXPECT_EQ(s.injected_total(), s.detected + s.tolerated);
  // Idempotent: a second finalize must not double-count.
  const auto det = s.detected, tol = s.tolerated;
  inj.finalize();
  EXPECT_EQ(inj.stats().detected, det);
  EXPECT_EQ(inj.stats().tolerated, tol);
}

TEST(FaultInjector, DetectionLatencyIsHistogrammed) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop_rate = 1.0;
  fault::FaultInjector inj(cfg);
  inj.register_wire();
  const auto fate = inj.judge_frame(0, 100);
  ASSERT_GE(fate.sender_event, 0);
  inj.on_detected({fate.sender_event}, 164);
  EXPECT_EQ(inj.stats().detection_count, 1u);
  EXPECT_EQ(inj.stats().detection_latency_sum, 64u);
  EXPECT_EQ(inj.stats().detection_latency.count(7), 1u);  // [64, 128)
}

TEST(FaultInjector, StuckWireLosesEveryFrameAfterOnset) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.stuck_rate = 1.0;
  cfg.stuck_horizon = 1;  // onset at cycle 0 for every wire
  fault::FaultInjector inj(cfg);
  const auto w = inj.register_wire();
  EXPECT_EQ(inj.stuck_from(w), 0u);
  for (Cycle t = 0; t < 8; ++t) {
    EXPECT_TRUE(inj.judge_frame(w, t).lost);
  }
  inj.on_wire_dead(w, 50);
  inj.finalize();
  const auto& s = inj.stats();
  EXPECT_EQ(s.injected[static_cast<std::size_t>(fault::FaultKind::kStuck)],
            1u);
  EXPECT_EQ(
      s.injected[static_cast<std::size_t>(fault::FaultKind::kStuckDrop)],
      8u);
  EXPECT_EQ(s.injected_total(), s.detected + s.tolerated);
}

// The lookahead that lets guarded channels sleep to their next noise
// cycle must agree with noise_event_at on every wire and cycle — it
// compares an integer threshold where noise_event_at compares a double,
// and this test is what shows the two are the same predicate.
TEST(FaultInjector, NextNoiseIsTheFirstCycleNoiseEventAtFires) {
  constexpr std::uint32_t kWires = 6;
  constexpr Cycle kSpan = 60000;  // several 1e-4 gaps
  for (const std::uint64_t seed : {1ull, 42ull, 977ull}) {
    for (const double rate : {0.0, 1e-4, 0.5, 1.0}) {
      for (const bool stuck : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " rate "
                                          << rate << " stuck " << stuck);
        FaultConfig cfg;
        cfg.enabled = true;
        cfg.seed = seed;
        cfg.noise_rate = rate;
        if (stuck) {
          cfg.stuck_rate = 0.7;  // most wires go stuck inside the span
          cfg.stuck_horizon = kSpan;
        }
        fault::FaultInjector inj(cfg);
        for (std::uint32_t w = 0; w < kWires; ++w) inj.register_wire();
        std::uint32_t fired = 0;
        std::uint32_t after_onset = 0;
        for (std::uint32_t w = 0; w < kWires; ++w) {
          const Cycle onset = inj.stuck_from(w);
          std::vector<Cycle> froms = {1, 777, kSpan / 2};
          if (onset != kNoCycle && onset > 0) {
            froms.push_back(onset - 1);
            froms.push_back(onset);
          }
          for (const Cycle from : froms) {
            for (const Cycle until : {from + 3, from + kSpan}) {
              Cycle expect = until;
              for (Cycle c = from; c < until; ++c) {
                if (inj.noise_event_at(w, c) >= 0) {
                  expect = c;
                  break;
                }
              }
              if (expect == until && (rate == 0.0 || onset <= until)) {
                expect = kNoCycle;  // the wire is silent for good
              }
              EXPECT_EQ(inj.next_noise(w, from, until), expect)
                  << "wire " << w << " from " << from << " until " << until;
              if (expect != kNoCycle && expect != until) ++fired;
              if (onset <= from) ++after_onset;
            }
          }
        }
        if (rate > 0.0) {
          EXPECT_GT(fired, 0u);
        }
        if (stuck) {
          EXPECT_GT(after_onset, 0u);
        }
      }
    }
  }
}

// ------------------------------------------------------------ spec parsing

TEST(ParseFaultSpec, BareRateAppliesToAllTransientKinds) {
  const auto cfg = fault::parse_fault_spec("0.01");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.garble_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.delay_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.noise_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.stuck_rate, 0.001);
}

TEST(ParseFaultSpec, KeyValueListSetsIndividualKnobs) {
  const auto cfg = fault::parse_fault_spec(
      "drop=1e-3,stuck=1e-4,seed=7,retries=3,timeout=32,fallback=tatas");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.drop_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.garble_rate, 0.0);
  EXPECT_DOUBLE_EQ(cfg.stuck_rate, 1e-4);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.max_retries, 3u);
  EXPECT_EQ(cfg.watchdog_timeout, 32u);
  EXPECT_TRUE(cfg.fallback_tatas);
}

TEST(ParseFaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(fault::parse_fault_spec(""), SimError);
  EXPECT_THROW(fault::parse_fault_spec("bogus=1"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("drop=2.0"), SimError);  // > 1
  EXPECT_THROW(fault::parse_fault_spec("fallback=glock"), SimError);
  EXPECT_THROW(fault::parse_fault_spec("not-a-number"), SimError);
}

// -------------------------------------------------- wire invariants (#2)

TEST(WireInvariant, DoubleDriveInOneCycleTrips) {
  gline::Wire w(1);
  w.pulse(5);
  EXPECT_THROW(w.pulse(5), SimError);
}

TEST(WireInvariant, DistinctCyclesAreFine) {
  gline::Wire w(1);
  w.pulse(5);
  w.pulse(6);
  EXPECT_TRUE(w.poll(6));
  EXPECT_TRUE(w.poll(7));
}

TEST(WireInvariant, DoubleFrameStartInOneCycleTrips) {
  gline::Wire w(1);
  w.send_frame(5, 0b011, 4, gline::kFrameCycles);
  EXPECT_THROW(w.send_frame(5, 0b011, 4, gline::kFrameCycles), SimError);
}

// --------------------------------------------------------- framed channel

class ChannelFixture : public ::testing::Test {
 protected:
  void build(const FaultConfig& cfg) {
    cfg_ = cfg;
    injector_ = std::make_unique<fault::FaultInjector>(cfg_);
    ch_ = std::make_unique<gline::FramedChannel>(
        /*latency=*/1, /*is_local=*/false, cfg_, injector_.get(), &stats_);
  }

  /// Ticks `n` cycles, draining both inboxes into `got`.
  void run(int n, std::vector<gline::Sym> got[2]) {
    for (int i = 0; i < n; ++i) {
      ch_->tick(now_);
      gline::Sym s;
      for (int end = 0; end < 2; ++end) {
        while (ch_->recv(end, s)) got[end].push_back(s);
      }
      ++now_;
    }
  }

  FaultConfig cfg_;
  gline::GlineStats stats_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<gline::FramedChannel> ch_;
  Cycle now_ = 0;
};

TEST_F(ChannelFixture, CleanLinkDeliversWithoutRetransmission) {
  FaultConfig cfg;
  cfg.enabled = true;  // ARQ on, all rates zero
  build(cfg);
  ch_->send(0, gline::Sym::kReq);
  ch_->send(1, gline::Sym::kToken);
  std::vector<gline::Sym> got[2];
  run(40, got);
  ASSERT_EQ(got[1].size(), 1u);
  EXPECT_EQ(got[1][0], gline::Sym::kReq);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0], gline::Sym::kToken);
  EXPECT_EQ(injector_->stats().retransmissions, 0u);
  EXPECT_EQ(injector_->stats().watchdog_timeouts, 0u);
  EXPECT_FALSE(ch_->dead());
  EXPECT_TRUE(ch_->idle());
}

TEST_F(ChannelFixture, LossyLinkDeliversExactlyOnceInOrder) {
  auto cfg = lossy_config(0.25);
  cfg.max_retries = 12;
  build(cfg);
  // Queue a conversation in both directions up front; stop-and-wait
  // drains it one acknowledged frame at a time.
  const std::vector<gline::Sym> down = {
      gline::Sym::kReq, gline::Sym::kRel, gline::Sym::kReq,
      gline::Sym::kRel, gline::Sym::kReq};
  const std::vector<gline::Sym> up = {gline::Sym::kToken,
                                      gline::Sym::kToken};
  for (const auto s : down) ch_->send(0, s);
  for (const auto s : up) ch_->send(1, s);
  std::vector<gline::Sym> got[2];
  run(20000, got);
  ASSERT_FALSE(ch_->dead())
      << "retry budget too small for this loss rate";
  EXPECT_EQ(got[1], down);  // exactly once, in order
  EXPECT_EQ(got[0], up);
  // The loss rate guarantees the ARQ actually worked for its living.
  EXPECT_GT(injector_->stats().injected_total(), 0u);
  injector_->finalize();
  const auto& s = injector_->stats();
  EXPECT_EQ(s.injected_total(), s.detected + s.tolerated);
}

TEST_F(ChannelFixture, LinkDiesAfterRetryBudget) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop_rate = 1.0;  // nothing ever gets through
  cfg.max_retries = 2;
  build(cfg);
  ch_->send(0, gline::Sym::kReq);
  std::vector<gline::Sym> got[2];
  run(4000, got);
  EXPECT_TRUE(ch_->dead());
  EXPECT_TRUE(got[1].empty());
  EXPECT_EQ(injector_->stats().link_failures, 1u);
  EXPECT_GE(injector_->stats().watchdog_timeouts, 2u);
  injector_->finalize();
  const auto& s = injector_->stats();
  EXPECT_EQ(s.injected_total(), s.detected + s.tolerated);
}

TEST_F(ChannelFixture, NoiseBurstsAreDiscardedNotDecoded) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.noise_rate = 0.2;
  build(cfg);
  std::vector<gline::Sym> got[2];
  run(500, got);
  // A silent link under heavy receiver noise must deliver nothing:
  // spurious bursts can never assemble a valid frame.
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[1].empty());
  EXPECT_GT(injector_->stats().rx_discards, 0u);
  injector_->finalize();
  const auto& s = injector_->stats();
  EXPECT_EQ(s.detected, s.injected_total());  // all noise is detected
}

// ------------------------------------------------------ guarded unit

class GuardedUnitFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCores = 9;
  static constexpr std::uint32_t kWidth = 3;

  void build(const FaultConfig& cfg) {
    cfg_ = cfg;
    injector_ = std::make_unique<fault::FaultInjector>(cfg_);
    health_ = std::make_unique<fault::GlockHealth>(1);
    for (std::uint32_t c = 0; c < kCores; ++c) regs_.emplace_back(1);
    for (auto& r : regs_) ptrs_.push_back(&r);
    // The flat layout fits: rows of kWidth under one root.
    unit_ = std::make_unique<gline::GuardedGlockUnit>(
        0,
        std::make_shared<const gline::TokenTree>(
            gline::TokenTree::reach_bounded(kCores, kWidth, 1, true)),
        cfg_, injector_.get(), health_.get(), ptrs_);
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) unit_->tick(now_++);
  }

  void request(CoreId c) { regs_[c].req[0] = true; }
  bool waiting(CoreId c) const { return regs_[c].req[0]; }
  void release(CoreId c) { regs_[c].rel[0] = true; }

  int ticks_to_grant(CoreId c, int limit = 400) {
    int n = 0;
    while (waiting(c)) {
      tick();
      ++n;
      EXPECT_LT(n, limit) << "grant never arrived for core " << c;
      if (n >= limit) break;
    }
    return n;
  }

  FaultConfig cfg_;
  Cycle now_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::GlockHealth> health_;
  std::vector<glocks::core::LockRegisters> regs_;
  std::vector<glocks::core::LockRegisters*> ptrs_;
  std::unique_ptr<gline::GuardedGlockUnit> unit_;
};

TEST_F(GuardedUnitFixture, CleanLinkGrantsAndReleases) {
  FaultConfig cfg;
  cfg.enabled = true;
  build(cfg);
  request(0);
  ticks_to_grant(0);
  EXPECT_EQ(unit_->holder(), std::optional<CoreId>(0));
  release(0);
  // A framed release takes several cycles to reach the manager.
  for (int i = 0; i < 100 && unit_->holder().has_value(); ++i) tick();
  EXPECT_EQ(unit_->holder(), std::nullopt);
  EXPECT_FALSE(unit_->failing());
  EXPECT_FALSE(unit_->demoted());
}

TEST_F(GuardedUnitFixture, MutualExclusionAcrossContenders) {
  FaultConfig cfg;
  cfg.enabled = true;
  build(cfg);
  request(2);
  request(7);  // different mesh rows -> different leaf managers
  int grants = 0;
  for (int i = 0; i < 2000 && grants < 2; ++i) {
    tick();
    const auto h = unit_->holder();
    if (h.has_value() && !waiting(*h)) {
      ++grants;
      release(*h);
      // Let the release drain before counting the next grant.
      for (int j = 0; j < 60; ++j) tick();
    }
  }
  EXPECT_EQ(grants, 2);
  EXPECT_FALSE(waiting(2));
  EXPECT_FALSE(waiting(7));
}

TEST_F(GuardedUnitFixture, AllWiresStuckDemotesTheGlock) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.stuck_rate = 1.0;
  cfg.stuck_horizon = 1;  // dead on arrival
  cfg.max_retries = 2;
  build(cfg);
  request(0);
  tick(4000);
  EXPECT_TRUE(unit_->demoted());
  EXPECT_EQ(health_->demoted[0], 1);
  // Post-demotion the unit flushes the registers every cycle so the
  // spinning core unblocks into the software fallback.
  EXPECT_FALSE(waiting(0));
  EXPECT_GE(injector_->stats().link_failures, 1u);
  EXPECT_EQ(injector_->stats().fallback_demotions, 1u);
  // The dump names the demotion for the hang diagnostic.
  EXPECT_NE(unit_->debug_dump().find("demoted"), std::string::npos);
  injector_->finalize();
  const auto& s = injector_->stats();
  EXPECT_EQ(s.injected_total(), s.detected + s.tolerated);
}

// --------------------------------------- recorded guarded-unit digests
//
// A guarded unit ticks only its live channels and the G-line system
// sleeps to the units' next deadline; neither may move a grant, a frame
// or a ledger entry by a cycle. These cases pin a digest of every grant
// (cycle, core), the G-line counters and the reconciled fault ledger,
// recorded from the tick-every-channel units, for the flat (32 cores)
// and hierarchical (64 cores, group 6) trees under four fault plans —
// hand-ticked every cycle and registered with the event-driven engine.

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

/// Cores contending for two GLocks (core % 2): each thinks, requests,
/// holds the lock a few cycles once its request register clears, then
/// releases, for kRounds rounds.
struct Contenders {
  static constexpr std::uint32_t kRounds = 12;
  enum Phase : std::uint8_t { kThink, kWait, kHold, kRelease, kDone };
  struct Core {
    CoreId id = 0;
    Phase phase = kThink;
    Cycle until = 0;
    std::uint32_t rounds = 0;
  };
  std::vector<Core> cores;
  std::uint64_t digest = kFnvBasis;

  /// One cycle; returns true when it wrote a register.
  bool tick(Cycle now, std::vector<core::LockRegisters>& regs) {
    bool wrote = false;
    for (Core& c : cores) {
      auto& r = regs[c.id];
      const GlockId g = c.id % 2;
      switch (c.phase) {
        case kThink:
          if (now < c.until) break;
          r.req[g] = true;
          c.phase = kWait;
          wrote = true;
          break;
        case kWait:
          if (r.req[g]) break;
          fold(digest, now);
          fold(digest, c.id);
          c.phase = kHold;
          c.until = now + 2 + c.id % 5;
          break;
        case kHold:
          if (now < c.until) break;
          r.rel[g] = true;
          c.phase = kRelease;
          wrote = true;
          break;
        case kRelease:
          if (r.rel[g]) break;
          c.phase = ++c.rounds == kRounds ? kDone : kThink;
          c.until = now + 3 + (c.id * 7 + c.rounds) % 13;
          break;
        case kDone:
          break;
      }
    }
    return wrote;
  }
  bool done() const {
    for (const Core& c : cores) {
      if (c.phase != kDone) return false;
    }
    return true;
  }
};

/// Engine slot for the contenders; wakes the G-line system on a register
/// write, as the cores' awaiters do.
class ContenderSlot : public sim::Component {
 public:
  ContenderSlot(Contenders& c, std::vector<core::LockRegisters>& regs,
                sim::Component& glines)
      : c_(c), regs_(regs), glines_(glines) {}
  void tick(Cycle now) override {
    if (c_.tick(now, regs_)) glines_.wake();
  }

 private:
  Contenders& c_;
  std::vector<core::LockRegisters>& regs_;
  sim::Component& glines_;
};

struct DigestCase {
  const char* name;
  bool hierarchical;
  const char* faults;
  std::uint64_t digest;
};
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

/// Contenders on a two-GLock system, run by hand or on the engine, folded
/// into one digest. The parameter type picks the machine (build()).
template <typename Case>
class DigestFixture : public ::testing::TestWithParam<Case> {
 protected:
  static constexpr Cycle kLimit = 400000;

  void build() {
    cfg_.gline.num_glocks = 2;
    regs_.assign(cfg_.num_cores, core::LockRegisters(2));
    for (auto& r : regs_) ptrs_.push_back(&r);
    sys_ = std::make_unique<gline::GlineSystem>(cfg_, ptrs_);
    for (CoreId c = 0; c < cfg_.num_cores; c += 3) {
      drv_.cores.push_back({c, Contenders::kThink, c % 11, 0});
    }
  }

  /// Grants so far, then the G-line counters and the closed ledger.
  std::uint64_t finish(Cycle end) {
    std::uint64_t h = drv_.digest;
    fold(h, end);
    const auto g = sys_->total_stats();
    for (auto v : {g.signals, g.local_flags, g.acquires_granted, g.releases,
                   g.secondary_passes}) {
      fold(h, v);
    }
    const auto f = sys_->finalize_fault_stats();
    for (auto v : f.injected) fold(h, v);
    for (auto v : {f.detected, f.tolerated, f.retransmissions,
                   f.watchdog_timeouts, f.spurious_retransmissions,
                   f.rx_discards, f.duplicate_frames, f.link_failures,
                   f.fallback_demotions, f.detection_latency_sum,
                   f.detection_count}) {
      fold(h, v);
    }
    demotions_ = f.fallback_demotions;
    return h;
  }

  Cycle run_by_hand() {
    Cycle now = 0;
    for (; !drv_.done() && now < kLimit; ++now) {
      drv_.tick(now, regs_);
      sys_->tick(now);
    }
    return now;
  }

  Cycle run_on_engine() {
    sim::Engine engine;
    ContenderSlot slot(drv_, regs_, *sys_);
    engine.add(slot, "contenders");
    engine.add(*sys_, "glines");
    return engine.run_until([this] { return drv_.done(); }, kLimit);
  }

  CmpConfig cfg_;
  std::vector<core::LockRegisters> regs_;
  std::vector<core::LockRegisters*> ptrs_;
  std::unique_ptr<gline::GlineSystem> sys_;
  Contenders drv_;
  std::uint64_t demotions_ = 0;
};

class GuardedDigest : public DigestFixture<DigestCase> {
 protected:
  void SetUp() override {
    cfg_.num_cores = GetParam().hierarchical ? 64 : 32;
    cfg_.gline.hierarchical = GetParam().hierarchical;
    cfg_.fault = fault::parse_fault_spec(GetParam().faults);
    build();
  }
};

TEST_P(GuardedDigest, HandTicked) {
  EXPECT_EQ(finish(run_by_hand()), GetParam().digest);
  if (std::string(GetParam().name).find("stuck") != std::string::npos) {
    EXPECT_GT(demotions_, 0u) << "the plan must demote a GLock";
  }
}

TEST_P(GuardedDigest, EngineRegistered) {
  EXPECT_EQ(finish(run_on_engine()), GetParam().digest);
}

constexpr const char* kArq = "drop=0.02,garble=0.02,delay=0.02,seed=3";
constexpr const char* kNoise = "noise=0.005,seed=5";
constexpr const char* kStuck =
    "stuck=0.1,stuck_horizon=5000,retries=2,seed=7";
constexpr const char* kAll =
    "drop=0.01,garble=0.01,delay=0.01,noise=0.002,stuck=0.01,"
    "stuck_horizon=4000,seed=9";

INSTANTIATE_TEST_SUITE_P(
    Recorded, GuardedDigest,
    ::testing::Values(
        DigestCase{"flat_arq", false, kArq, 11704325896936499983ull},
        DigestCase{"flat_noise", false, kNoise, 12920929779378347135ull},
        DigestCase{"flat_stuck", false, kStuck, 6306379611653255175ull},
        DigestCase{"flat_all", false, kAll, 8838264072305052514ull},
        DigestCase{"hier_arq", true, kArq, 2702448669682429387ull},
        DigestCase{"hier_noise", true, kNoise, 17992213573245625870ull},
        DigestCase{"hier_stuck", true, kStuck, 12219890195078054157ull},
        DigestCase{"hier_all", true, kAll, 2175056162628721364ull}),
    [](const auto& info) { return std::string(info.param.name); });

// ----------------------------------------- recorded clean-unit digests
//
// The same contenders on the fault-free units: the flat paper tree (rows
// under a circular primary) and the reach-bounded Section V tree, each at
// G-line latency 1 and 3, hand-ticked and on the event-driven engine
// (which sleeps on the units' dormant()). The digests were recorded from
// the separate flat and hierarchical units the shared token tree replaced.

struct CleanCase {
  const char* name;
  std::uint32_t cores;
  bool hierarchical;  ///< reach-bounded tree (reach 6) instead of rows
  Cycle latency;
  std::uint64_t digest;
};
void PrintTo(const CleanCase& c, std::ostream* os) { *os << c.name; }

class CleanDigest : public DigestFixture<CleanCase> {
 protected:
  void SetUp() override {
    cfg_.num_cores = GetParam().cores;
    cfg_.gline.hierarchical = GetParam().hierarchical;
    cfg_.gline.signal_latency = GetParam().latency;
    build();
    ASSERT_EQ(sys_->hierarchical(), GetParam().hierarchical);
  }
};

TEST_P(CleanDigest, HandTicked) {
  EXPECT_EQ(finish(run_by_hand()), GetParam().digest);
}

TEST_P(CleanDigest, EngineRegistered) {
  EXPECT_EQ(finish(run_on_engine()), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, CleanDigest,
    ::testing::Values(
        CleanCase{"flat9_lat1", 9, false, 1, 11899688202843634337ull},
        CleanCase{"flat9_lat3", 9, false, 3, 11644323652768159579ull},
        CleanCase{"flat32_lat1", 32, false, 1, 15374959599594474463ull},
        CleanCase{"flat32_lat3", 32, false, 3, 10273928286620415649ull},
        CleanCase{"reach100_lat1", 100, true, 1, 2291624180736424525ull},
        CleanCase{"reach100_lat3", 100, true, 3, 13387421600529381386ull},
        CleanCase{"reach256_lat1", 256, true, 1, 6291378950282172241ull},
        CleanCase{"reach256_lat3", 256, true, 3, 5278776459617587151ull}),
    [](const auto& info) { return std::string(info.param.name); });

// -------------------------------------------- hang diagnostic (#1)

class NeverDone : public sim::Component {
 public:
  void tick(Cycle) override {}
};

TEST(HangDiagnostic, CycleLimitCarriesTheReporterDump) {
  sim::Engine eng;
  NeverDone c;
  eng.add(c);
  eng.set_hang_reporter([] { return "TOKEN-AT-MGR-3\n"; });
  try {
    eng.run_until([] { return false; }, 25);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hang diagnostic"), std::string::npos) << what;
    EXPECT_NE(what.find("TOKEN-AT-MGR-3"), std::string::npos) << what;
    EXPECT_NE(what.find("25"), std::string::npos) << what;
  }
}

TEST(HangDiagnostic, WithoutReporterStillRaisesStructuredError) {
  sim::Engine eng;
  NeverDone c;
  eng.add(c);
  EXPECT_THROW(eng.run_until([] { return false; }, 10), SimError);
}

}  // namespace
}  // namespace glocks
