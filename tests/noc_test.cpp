// Unit tests for the 2D-mesh network: routing, latency, ordering,
// backpressure, and Figure 9 traffic accounting.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/archive.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/config.hpp"
#include "fault/fault.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"

namespace glocks::noc {
namespace {

struct Delivery {
  Cycle cycle;
  std::uint64_t seq;
  CoreId src;
};

class MeshFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kTiles = 16;
  static constexpr std::uint32_t kWidth = 4;

  MeshFixture() : mesh_(kTiles, kWidth, NocConfig{}) {
    for (CoreId t = 0; t < kTiles; ++t) {
      mesh_.set_sink(t, [this, t](Packet&& p) {
        deliveries_[t].push_back(Delivery{now_, p.seq, p.src});
      });
    }
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      mesh_.tick(now_);
      ++now_;
    }
  }

  Cycle now_ = 0;
  Mesh mesh_;
  std::map<CoreId, std::vector<Delivery>> deliveries_;
};

TEST_F(MeshFixture, ZeroLoadLatencyMatchesHopFormula) {
  // inject(1) + hops*(router 3 + link 1) + final router 3.
  const NocConfig cfg;
  for (const auto& [src, dst] : {std::pair<CoreId, CoreId>{0, 1},
                                {0, 3},
                                {0, 15},
                                {5, 6},
                                {12, 3}}) {
    deliveries_.clear();
    mesh_.send(src, dst, MsgClass::kRequest, 8, now_);
    const Cycle t0 = now_;
    run(200);
    ASSERT_EQ(deliveries_[dst].size(), 1u) << src << "->" << dst;
    const Cycle hops = mesh_.hop_distance(src, dst);
    const Cycle expect =
        t0 + 1 +
        hops * (cfg.router_latency + cfg.link_latency) +
        cfg.router_latency;
    EXPECT_EQ(deliveries_[dst][0].cycle, expect) << src << "->" << dst;
  }
}

TEST_F(MeshFixture, XYRoutingCountsHopBytesPerSwitch) {
  // 0 -> 15 crosses 6 hops + enters at the source router: the packet is
  // forwarded by 7 routers in total (source + 5 intermediate + dest).
  mesh_.send(0, 15, MsgClass::kReply, 72, now_);
  run(100);
  EXPECT_EQ(mesh_.stats().hops(MsgClass::kReply), 7u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kReply), 7u * 72u);
  EXPECT_EQ(mesh_.stats().packets(MsgClass::kReply), 1u);
}

TEST_F(MeshFixture, TrafficClassesAccountedSeparately) {
  mesh_.send(0, 1, MsgClass::kRequest, 8, now_);
  mesh_.send(0, 1, MsgClass::kCoherence, 8, now_);
  mesh_.send(1, 0, MsgClass::kReply, 72, now_);
  run(100);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kRequest), 2u * 8u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kCoherence), 2u * 8u);
  EXPECT_EQ(mesh_.stats().bytes(MsgClass::kReply), 2u * 72u);
  EXPECT_EQ(mesh_.stats().total_packets(), 3u);
}

TEST_F(MeshFixture, SameSrcDstPairDeliversInFifoOrder) {
  for (int i = 0; i < 20; ++i) {
    mesh_.send(0, 15, MsgClass::kRequest, 8, now_);
  }
  run(400);
  ASSERT_EQ(deliveries_[15].size(), 20u);
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_LT(deliveries_[15][i - 1].seq, deliveries_[15][i].seq);
  }
}

TEST_F(MeshFixture, HeavyFanInDeliversEverythingDespiteBackpressure) {
  // Every tile floods tile 5; bounded router queues must not drop or
  // deadlock, and the NIC outbox absorbs the excess.
  int expected = 0;
  for (CoreId src = 0; src < kTiles; ++src) {
    if (src == 5) continue;
    for (int i = 0; i < 40; ++i) {
      mesh_.send(src, 5, MsgClass::kRequest, 8, now_);
      ++expected;
    }
  }
  run(5000);
  EXPECT_EQ(static_cast<int>(deliveries_[5].size()), expected);
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, EjectionPortDeliversAtMostOnePerCycle) {
  for (CoreId src = 1; src < 5; ++src) {
    mesh_.send(src, 0, MsgClass::kRequest, 8, now_);
  }
  run(200);
  ASSERT_EQ(deliveries_[0].size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(deliveries_[0][i].cycle, deliveries_[0][i - 1].cycle);
  }
}

TEST_F(MeshFixture, IdleAfterDrainAndBusyInFlight) {
  EXPECT_TRUE(mesh_.idle());
  mesh_.send(0, 15, MsgClass::kRequest, 8, now_);
  EXPECT_FALSE(mesh_.idle());
  run(100);
  EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshFixture, RejectsSameTileMessages) {
  EXPECT_THROW(mesh_.send(3, 3, MsgClass::kRequest, 8, now_),
               glocks::SimError);
}

TEST_F(MeshFixture, HopDistanceIsManhattan) {
  EXPECT_EQ(mesh_.hop_distance(0, 0), 0u);
  EXPECT_EQ(mesh_.hop_distance(0, 3), 3u);
  EXPECT_EQ(mesh_.hop_distance(0, 15), 6u);
  EXPECT_EQ(mesh_.hop_distance(15, 0), 6u);
  EXPECT_EQ(mesh_.hop_distance(5, 10), 2u);
}

TEST_F(MeshFixture, EjectionsDrainInArrivalOrderAcrossClasses) {
  // Two same-pair packets of different classes, the later one of a
  // lower-numbered class. Both pass through the destination's single
  // cross-class ejection FIFO, which must deliver in arrival order:
  // draining it in class order would head-of-line block the earlier
  // packet behind the later one. Unrelated traffic sent while both are
  // past their last switch must not disturb that order.
  mesh_.send(3, 0, MsgClass::kCoherence, 8, now_);  // arrives at 16
  run(1);
  mesh_.send(3, 0, MsgClass::kRequest, 8, now_);  // arrives at 17
  run(14);
  ASSERT_EQ(now_, 15u);
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  mesh_.send(5, 6, MsgClass::kRequest, 8, now_);
  run(100);
  ASSERT_EQ(deliveries_[0].size(), 2u);
  EXPECT_EQ(deliveries_[0][0].cycle, 16u);  // kCoherence, sent first
  EXPECT_EQ(deliveries_[0][1].cycle, 17u);  // kRequest, sent second
  EXPECT_LT(deliveries_[0][0].seq, deliveries_[0][1].seq);
}

// ---------------------------------------------------------------------
// Router and NIC worklists past one 64-bit word, and ready-time stepping.
// The mesh visits only backlogged NICs and routers with a queue head due
// in both engine modes, so the serial-vs-event oracle cannot see either;
// a registered mesh also sleeps between hops. The digests were recorded
// with a mesh that ticked every router each cycle (the first four cases)
// or every occupied router each cycle without sleeping while a packet was
// in flight (the rest). They pin the delivery stream of meshes whose
// tiles span two (9x9) and four (16x16) worklist words, with 4- and
// 8-cycle hops, and with depth-4 queues so that heads block on full
// downstream queues.

/// One send of a pre-generated traffic schedule.
struct ScheduledSend {
  Cycle at;
  CoreId src;
  CoreId dst;
  MsgClass cls;
};

/// Seeded random traffic: sparse phases (a few packets in flight)
/// alternate with bursts that load many routers at once. With `fan_in`
/// the bursts all head for tiles 0-3, so their queues fill up.
std::vector<ScheduledSend> random_traffic(std::uint32_t tiles,
                                          std::uint64_t seed,
                                          Cycle cycles,
                                          bool fan_in = false) {
  std::vector<ScheduledSend> out;
  Rng rng(seed);
  for (Cycle c = 0; c < cycles; ++c) {
    const bool burst = (c / 200) % 2 == 1;
    if (rng.uniform() >= (burst ? 0.6 : 0.05)) continue;
    const int n = burst ? 1 + static_cast<int>(rng.below(8)) : 1;
    for (int i = 0; i < n; ++i) {
      const auto src = static_cast<CoreId>(rng.below(tiles));
      auto dst = static_cast<CoreId>(rng.below(fan_in && burst ? 4 : tiles));
      if (dst == src) dst = (dst + 1) % tiles;
      out.push_back({c, src, dst, static_cast<MsgClass>(rng.below(3))});
    }
  }
  return out;
}

/// A mesh that folds every delivery's (seq, cycle) into an FNV-1a
/// digest, in delivery order. Ticked by hand through run_to(), or by an
/// engine it is registered with (`engine` then supplies the clock).
struct DigestMesh {
  DigestMesh(std::uint32_t width, const char* faults,
             const NocConfig& cfg = NocConfig{},
             const sim::Engine* engine = nullptr)
      : mesh(width * width, width, cfg) {
    if (faults != nullptr) {
      mesh.enable_fault_domain(fault::parse_fault_spec(faults));
    }
    for (CoreId t = 0; t < width * width; ++t) {
      mesh.set_sink(t, [this, engine](Packet&& p) {
        fold(p.seq);
        fold(engine == nullptr ? now : engine->now());
        ++delivered;
      });
    }
  }
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  /// Plays the schedule from `next` up to cycle `end` (exclusive).
  void run_to(const std::vector<ScheduledSend>& sched, std::size_t& next,
              Cycle end) {
    for (; now < end; ++now) {
      for (; next < sched.size() && sched[next].at == now; ++next) {
        send(mesh, sched[next], now);
      }
      mesh.tick(now);
    }
  }
  static void send(Mesh& m, const ScheduledSend& s, Cycle now) {
    m.send(s.src, s.dst, s.cls, s.cls == MsgClass::kReply ? 72 : 8, now);
  }

  Mesh mesh;
  Cycle now = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t delivered = 0;
};

struct WorklistCase {
  std::uint32_t width;
  Cycle router_latency;
  Cycle link_latency;
  std::uint32_t queue_depth;
  const char* faults;  ///< --faults spec, or null for a clean mesh
  std::uint64_t digest;

  NocConfig config() const {
    NocConfig cfg;
    cfg.router_latency = router_latency;
    cfg.link_latency = link_latency;
    cfg.input_queue_depth = queue_depth;
    return cfg;
  }
  ::testing::Message describe() const {
    return ::testing::Message()
           << width << "x" << width << ", " << router_latency << "/"
           << link_latency << " hops, depth " << queue_depth << ", "
           << (faults == nullptr ? "clean" : faults);
  }
};

constexpr Cycle kTrafficCycles = 2000;
constexpr Cycle kDrainedBy = 12000;

// Mesh faults: lossy (and garbling) links plus one link death mid-run,
// so retransmissions and detours both run; the mesh stays connected.
constexpr WorklistCase kWorklistCases[] = {
    {9, 3, 1, 16, nullptr, 2051577866824729571ull},
    {9, 3, 1, 16, "mesh:drop=2e-3,mesh:garble=1e-3,mesh:kill=40.e@700",
     13064880978443027424ull},
    {16, 3, 1, 16, nullptr, 15380987694141764836ull},
    {16, 3, 1, 16, "mesh:drop=2e-3,mesh:garble=1e-3,mesh:kill=119.e@700",
     2192237269479168835ull},
    {9, 3, 1, 4, nullptr, 8315123660015112281ull},
    {9, 3, 1, 4, "mesh:drop=2e-3,mesh:kill=40.e@700",
     14426252645298998586ull},
    {9, 5, 3, 4, nullptr, 5097447016825287351ull},
    {9, 5, 3, 4, "mesh:drop=2e-3,mesh:kill=40.e@700",
     5114823439127595394ull},
};

constexpr std::uint32_t kDefaultDepth = NocConfig{}.input_queue_depth;

/// Cases with short queues fan their bursts in, so that heads block.
std::vector<ScheduledSend> case_traffic(const WorklistCase& wc) {
  return random_traffic(wc.width * wc.width, wc.width, kTrafficCycles,
                        wc.queue_depth < kDefaultDepth);
}

TEST(MeshWorklist, RandomTrafficBeyondOneWordMatchesRecordedDigest) {
  for (const WorklistCase& wc : kWorklistCases) {
    SCOPED_TRACE(wc.describe());
    const auto sched = case_traffic(wc);
    DigestMesh m(wc.width, wc.faults, wc.config());
    std::size_t next = 0;
    m.run_to(sched, next, kDrainedBy);
    ASSERT_TRUE(m.mesh.idle());
    EXPECT_EQ(m.delivered, sched.size());
    EXPECT_EQ(m.digest, wc.digest);
    if (wc.faults != nullptr) {
      // The faulted stream must cross the recovery paths it claims to.
      const fault::FaultStats fs = m.mesh.finalize_fault_stats();
      EXPECT_GT(fs.retransmissions, 0u);
      EXPECT_EQ(fs.link_failures, 1u);
      EXPECT_GT(fs.reroutes, 0u);
    }
    if (wc.queue_depth < kDefaultDepth) {
      // Full queues must have held heads back: with default-depth queues
      // the same traffic delivers differently.
      WorklistCase deep = wc;
      deep.queue_depth = kDefaultDepth;
      DigestMesh d(wc.width, wc.faults, deep.config());
      std::size_t d_next = 0;
      d.run_to(sched, d_next, kDrainedBy);
      EXPECT_NE(d.digest, m.digest);
    }
  }
}

/// Plays a schedule into a registered mesh, sleeping between send cycles.
class Feeder final : public sim::Component {
 public:
  Feeder(Mesh& mesh, const std::vector<ScheduledSend>& sched)
      : mesh_(mesh), sched_(sched) {}
  void tick(Cycle now) override {
    for (; next_ < sched_.size() && sched_[next_].at == now; ++next_) {
      DigestMesh::send(mesh_, sched_[next_], now);
    }
    if (next_ < sched_.size()) {
      sleep_until(sched_[next_].at);
    } else {
      sleep();
    }
  }

 private:
  Mesh& mesh_;
  const std::vector<ScheduledSend>& sched_;
  std::size_t next_ = 0;
};

TEST(MeshWorklist, EngineRegisteredMeshMatchesRecordedDigest) {
  // Registered, the mesh sleeps between hops under the event kernel and
  // is ticked every cycle under the serial one; both match the digest.
  for (const WorklistCase& wc : kWorklistCases) {
    for (const EngineMode mode :
         {EngineMode::kEventDriven, EngineMode::kSerial}) {
      SCOPED_TRACE(wc.describe() << (mode == EngineMode::kSerial
                                         ? ", serial engine"
                                         : ", event engine"));
      const auto sched = case_traffic(wc);
      sim::Engine engine(mode);
      DigestMesh m(wc.width, wc.faults, wc.config(), &engine);
      Feeder feeder(m.mesh, sched);
      engine.add(feeder, "feeder");
      engine.add(m.mesh, "mesh");
      engine.run_until([&] { return m.delivered == sched.size(); },
                       kDrainedBy);
      EXPECT_TRUE(m.mesh.idle());
      EXPECT_EQ(m.digest, wc.digest);
    }
  }
}

TEST(MeshWorklist, SaveMidFlightIsCanonicalAndLeavesTheRunIntact) {
  // A restore replays to the checkpoint cycle and byte-compares save()
  // output, so two meshes at the same cycle must write the same bytes,
  // and saving must not perturb the run that goes on past it.
  const PayloadSaver no_payload = [](ckpt::ArchiveWriter&, const Packet&) {};
  constexpr Cycle kCheckpointAt = 1350;
  for (const WorklistCase& wc : kWorklistCases) {
    SCOPED_TRACE(wc.describe());
    const auto sched = case_traffic(wc);
    const auto save_at = [&](DigestMesh& m, std::size_t& next) {
      // Many routers occupied and NIC outboxes backlogged.
      m.run_to(sched, next, kCheckpointAt);
      EXPECT_FALSE(m.mesh.idle());
      ckpt::ArchiveWriter w;
      w.begin_section(ckpt::tags::kMesh);
      m.mesh.save(w, no_payload);
      w.end_section();
      return w.buffer();
    };
    DigestMesh original(wc.width, wc.faults, wc.config());
    DigestMesh twin(wc.width, wc.faults, wc.config());
    std::size_t next = 0;
    std::size_t twin_next = 0;
    EXPECT_EQ(save_at(original, next), save_at(twin, twin_next));

    original.run_to(sched, next, kDrainedBy);
    ASSERT_TRUE(original.mesh.idle());
    EXPECT_EQ(original.delivered, sched.size());
    EXPECT_EQ(original.digest, wc.digest);
  }
}

/// Sends one packet at cycle 0, then sleeps for good.
class OneShot final : public sim::Component {
 public:
  OneShot(Mesh& mesh, CoreId src, CoreId dst)
      : mesh_(mesh), src_(src), dst_(dst) {}
  void tick(Cycle now) override {
    mesh_.send(src_, dst_, MsgClass::kRequest, 8, now);
    sleep();
  }

 private:
  Mesh& mesh_;
  CoreId src_, dst_;
};

TEST(MeshWorklist, LonePacketTicksTheMeshOncePerHop) {
  // Corner to corner on a 16x16 mesh: the packet is injected, switched
  // 31 times (30 hops plus ejection) and delivered. A mesh that ticks
  // only when a head is due needs about one tick per switch; one that
  // ticks every cycle in flight needs 4 per hop.
  constexpr std::uint32_t kWidth = 16;
  sim::Engine engine;
  Mesh mesh(kWidth * kWidth, kWidth, NocConfig{});
  bool delivered = false;
  Cycle delivered_at = 0;
  for (CoreId t = 0; t < kWidth * kWidth; ++t) {
    mesh.set_sink(t, [&](Packet&&) {
      delivered = true;
      delivered_at = engine.now();
    });
  }
  OneShot sender(mesh, 0, kWidth * kWidth - 1);
  engine.add(sender, "sender");
  engine.add(mesh, "mesh");
  engine.run_until([&] { return delivered; }, 1000);
  const std::uint32_t hops = mesh.hop_distance(0, kWidth * kWidth - 1);
  ASSERT_EQ(hops, 30u);
  std::uint64_t mesh_ticks = 0;
  for (const auto& sp : engine.slot_perf()) {
    if (sp.name == "mesh") mesh_ticks = sp.ticks;
  }
  EXPECT_LE(mesh_ticks, hops + 4);
  // The zero-load latency is unchanged: inject(1) + hops*(3 + 1) + 3.
  EXPECT_EQ(delivered_at, 1 + hops * 4 + 3);
}

TEST(RouterArbitration, FullRouterMatchesReferenceScanOrder) {
  // A center router (tile 4 of a 3x3 grid) with all four neighbors. Each
  // of its 15 (port, class) queues holds three ready packets whose
  // destinations collide on the output ports, so which head wins each
  // port depends on the scan order alone. The reference is the plain
  // rotating scan: slots rr, rr+1, ... mod 15, one winner per output.
  constexpr std::size_t kSlots = kNumDirs * kNumMsgClasses;
  // Destination tile for each output direction, in Dir order.
  constexpr CoreId kDstFor[kNumDirs] = {4, 1, 7, 5, 3};
  for (const std::uint32_t rr : {0u, 7u, 14u}) {
    SCOPED_TRACE(::testing::Message() << "rr = " << rr);
    TrafficStats stats;
    std::uint64_t occupied = 0;
    std::vector<std::unique_ptr<Router>> grid;
    for (std::uint32_t t = 0; t < 9; ++t) {
      grid.push_back(std::make_unique<Router>(t % 3, t / 3, 3, RouterTiming{},
                                              stats, &occupied,
                                              std::uint64_t{1} << t));
    }
    Router& c = *grid[4];
    c.connect(Dir::kNorth, *grid[1]);
    c.connect(Dir::kSouth, *grid[7]);
    c.connect(Dir::kEast, *grid[5]);
    c.connect(Dir::kWest, *grid[3]);
    // Rotate the round-robin pointer to `rr` the way the router does: one
    // step per tick that sees a ready head. Each warm-up packet leaves for
    // a neighbour at once (at most 4 land in any neighbour queue), so c is
    // empty again afterwards.
    for (std::uint32_t i = 0; i < rr; ++i) {
      Packet p;
      p.src = 4;
      p.dst = kDstFor[1 + i % 4];
      p.size_bytes = 8;
      c.accept(Dir::kLocal, std::move(p), 0);
      ASSERT_TRUE(c.tick(i));
    }
    ASSERT_TRUE(c.idle());

    struct Queued {
      std::uint64_t seq;
      std::size_t out;
    };
    std::array<std::deque<Queued>, kSlots> model;
    std::uint64_t seq = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        const std::size_t out = (s * 7 + k * 3) % kNumDirs;
        Packet p;
        p.src = 4;
        p.dst = kDstFor[out];
        p.cls = static_cast<MsgClass>(s % kNumMsgClasses);
        p.size_bytes = 8;
        p.seq = seq++;
        model[s].push_back(Queued{p.seq, out});
        c.accept(static_cast<Dir>(s / kNumMsgClasses), std::move(p), 0);
      }
    }
    std::size_t ptr = rr;
    std::size_t ejected = 0;
    for (Cycle now = 0; now < 3; ++now) {
      bool used[kNumDirs] = {};
      std::vector<std::size_t> winners;
      for (std::size_t scan = 0; scan < kSlots; ++scan) {
        const std::size_t s = (ptr + scan) % kSlots;
        if (model[s].empty() || used[model[s].front().out]) continue;
        used[model[s].front().out] = true;
        winners.push_back(s);
      }
      c.tick(now);
      for (const std::size_t s : winners) {
        if (model[s].front().out == 0) ++ejected;
        model[s].pop_front();
      }
      ptr = (ptr + 1) % kSlots;
      std::size_t queued = 0;
      for (std::size_t s = 0; s < kSlots; ++s) {
        queued += model[s].size();
        if (model[s].empty()) continue;
        EXPECT_EQ(c.peek_head(static_cast<Dir>(s / kNumMsgClasses),
                              static_cast<MsgClass>(s % kNumMsgClasses))
                      .seq,
                  model[s].front().seq)
            << "slot " << s << " after cycle " << now;
      }
      // Ejected packets wait router_latency cycles in the local queue.
      EXPECT_EQ(c.occupancy(), queued + ejected);
    }
  }
}

TEST(MsgClass, Names) {
  EXPECT_EQ(to_string(MsgClass::kRequest), "Request");
  EXPECT_EQ(to_string(MsgClass::kReply), "Reply");
  EXPECT_EQ(to_string(MsgClass::kCoherence), "Coherence");
}

}  // namespace
}  // namespace glocks::noc
