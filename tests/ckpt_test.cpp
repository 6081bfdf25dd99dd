// Checkpoint archive and component save/load tests.
//
// Layer 1: the TLV container itself — primitive round trips, and the
// rejection contract: bad magic, version skew, CRC corruption, and
// truncation are structured CkptErrors, never a crash or a silently
// wrong read.
//
// Layer 2: directed save/load round trips per component family. The
// pattern throughout: machine A is paused mid-run and serialized;
// machine B — same configuration, freshly built, never run — loads A's
// sections and re-serializes. Byte-equal archives prove load consumed
// and restored exactly what save wrote, for every field of every
// component (engine wake queue, L1 lines, directory entries, in-flight
// NoC packets, G-line/ARQ state, census, pool counters).
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "harness/runner.hpp"
#include "sim/engine.hpp"
#include "workloads/registry.hpp"

namespace glocks {
namespace {

using ckpt::ArchiveReader;
using ckpt::ArchiveWriter;
using ckpt::CkptError;

CkptError::Code error_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CkptError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a CkptError";
  return CkptError::Code::kIo;
}

TEST(Archive, PrimitivesRoundTrip) {
  ArchiveWriter w;
  w.begin_section(0x31545354u);  // 'TST1'
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(-1234.5e-6);
  w.str("hello\0world");  // embedded NUL stays out (C-string literal)
  w.str(std::string("bin\0ary", 7));
  w.end_section();
  w.begin_section(0x32545354u);  // 'TST2'
  w.u32(7);
  w.end_section();

  ArchiveReader r(w.buffer());
  EXPECT_EQ(r.version(), ckpt::kFormatVersion);
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.section_tag(), 0x31545354u);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.f64(), -1234.5e-6);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  EXPECT_EQ(r.section_remaining(), 0u);
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.section_tag(), 0x32545354u);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_FALSE(r.next_section());
}

TEST(Archive, IdenticalContentIdenticalBytes) {
  const auto build = [] {
    ArchiveWriter w;
    w.begin_section(1);
    w.u64(99);
    w.str("same");
    w.end_section();
    return w.buffer();
  };
  EXPECT_EQ(build(), build());
}

TEST(Archive, BadMagicRejected) {
  ArchiveWriter w;
  w.begin_section(1);
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes[0] ^= 0xFF;
  EXPECT_EQ(error_code([&] { ArchiveReader r(bytes); }),
            CkptError::Code::kBadMagic);
}

TEST(Archive, VersionSkewRejected) {
  ArchiveWriter w;
  w.begin_section(1);
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  // Version field is the little-endian u32 right after the 8-byte magic.
  const std::uint32_t newer = ckpt::kFormatVersion + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(newer >> (8 * i));
  }
  EXPECT_EQ(error_code([&] { ArchiveReader r(bytes); }),
            CkptError::Code::kBadVersion);
}

TEST(Archive, OlderVersionRejectedUpFront) {
  // v3 widened the run spec and several state sections without
  // per-field gates, so an archive from an older build must be refused
  // cleanly at the header — not fail mid-parse with kTruncated or
  // kBadSection after consuming unrelated bytes as mesh config. v7
  // archives still carry the mesh fast-forward flag and state v8 dropped.
  static_assert(ckpt::kMinFormatVersion > 7,
                "v7 archives must be refused as an older format");
  ArchiveWriter w;
  w.begin_section(1);
  w.u8(1);
  w.end_section();
  for (const std::uint32_t older : {ckpt::kMinFormatVersion - 1, 7u}) {
    SCOPED_TRACE(::testing::Message() << "version " << older);
    std::vector<std::uint8_t> bytes = w.buffer();
    for (int i = 0; i < 4; ++i) {
      bytes[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(older >> (8 * i));
    }
    try {
      ArchiveReader r(bytes);
      ADD_FAILURE() << "older-version archive unexpectedly accepted";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptError::Code::kBadVersion);
      EXPECT_NE(std::string(e.what()).find("older incompatible build"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Archive, CrcCorruptionRejected) {
  ArchiveWriter w;
  w.begin_section(1);
  for (int i = 0; i < 64; ++i) w.u8(static_cast<std::uint8_t>(i));
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes[12 + 12 + 20] ^= 0x01;  // header + section frame + 20 into payload
  ArchiveReader r(bytes);
  EXPECT_EQ(error_code([&] { r.next_section(); }),
            CkptError::Code::kBadCrc);
}

TEST(Archive, TruncationRejected) {
  ArchiveWriter w;
  w.begin_section(1);
  w.u64(123);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes.resize(bytes.size() - 3);  // cut into the section's CRC
  ArchiveReader r(bytes);
  EXPECT_EQ(error_code([&] { r.next_section(); }),
            CkptError::Code::kTruncated);
}

TEST(Archive, TruncatedTailToleratedWhenAskedTo) {
  ArchiveWriter w;
  w.begin_section(1);
  w.u64(123);
  w.end_section();
  w.begin_section(2);
  w.u64(456);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes.resize(bytes.size() - 3);  // damage only the final section
  ArchiveReader r(bytes, /*tolerate_truncated_tail=*/true);
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.u64(), 123u);
  EXPECT_FALSE(r.next_section());  // iteration ends before the damage
}

TEST(Archive, UnreadPayloadRejected) {
  ArchiveWriter w;
  w.begin_section(1);
  w.u64(1);
  w.u64(2);
  w.end_section();
  w.begin_section(2);
  w.end_section();
  ArchiveReader r(w.buffer());
  ASSERT_TRUE(r.next_section());
  r.u64();  // leave the second u64 unconsumed
  EXPECT_EQ(error_code([&] { r.next_section(); }),
            CkptError::Code::kBadSection);
}

// ---------------------------------------------------------------------
// Engine wake queue.

class Beeper : public sim::Component {
 public:
  explicit Beeper(Cycle period) : period_(period) {}
  void tick(Cycle now) override {
    ++beeps_;
    sleep_until(now + period_);
  }

 private:
  Cycle period_;
  std::uint64_t beeps_ = 0;
};

TEST(EngineCkpt, WakeQueueRoundTrip) {
  const auto build_and_save = [](bool run_first) {
    sim::Engine e;
    Beeper fast(3), slow(7), slower(11);
    e.add(fast, "fast");
    e.add(slow, "slow");
    e.add(slower, "slower");
    if (run_first) {
      e.run_until([&] { return e.now() >= 20; }, 1000);
    }
    ArchiveWriter w;
    w.begin_section(ckpt::tags::kEngine);
    e.save(w);
    w.end_section();
    return w.buffer();
  };

  const std::vector<std::uint8_t> saved = build_and_save(/*run_first=*/true);

  // A fresh engine (same roster, never run) must absorb the state and
  // reproduce the identical bytes: clock, active set, per-slot
  // last-tick/last-wake, the pending wake heap, and the perf counters.
  sim::Engine e2;
  Beeper fast(3), slow(7), slower(11);
  e2.add(fast, "fast");
  e2.add(slow, "slow");
  e2.add(slower, "slower");
  ArchiveReader r(saved);
  ASSERT_TRUE(r.next_section());
  e2.load(r);
  // The event kernel may jump past the done-predicate's threshold to the
  // next wake, so assert the restored clock reached it, not equality.
  EXPECT_GE(e2.now(), 20u);

  ArchiveWriter w2;
  w2.begin_section(ckpt::tags::kEngine);
  e2.save(w2);
  w2.end_section();
  EXPECT_EQ(w2.buffer(), saved);
}

TEST(EngineCkpt, SlotCountMismatchRejected) {
  sim::Engine e;
  Beeper one(2);
  e.add(one, "one");
  e.step();
  ArchiveWriter w;
  w.begin_section(ckpt::tags::kEngine);
  e.save(w);
  w.end_section();

  sim::Engine e2;
  Beeper a(2), b(3);
  e2.add(a, "a");
  e2.add(b, "b");
  ArchiveReader r(w.buffer());
  ASSERT_TRUE(r.next_section());
  EXPECT_THROW(e2.load(r), SimError);
}

// ---------------------------------------------------------------------
// Whole-machine round trips: pause machine A mid-run, serialize, load
// into a never-run machine B with the same shape, re-serialize, compare
// bytes. A mid-run pause cycle is chosen so the archive carries live L1
// lines, directory entries and sharers, in-flight NoC packets, pending
// MSHR-style state, and (for the faulted variant) G-line ARQ frames in
// flight — the families the issue's checklist names.

/// A CmpSystem with a workload's threads bound, mirroring the runner's
/// setup, so checkpoint state includes per-thread accounting.
struct BoundSystem {
  explicit BoundSystem(const CmpConfig& cfg, const std::string& workload,
                       double scale, std::uint64_t seed)
      : sys(cfg), wl(workloads::make_workload(workload, scale)),
        ctx(std::make_unique<harness::WorkloadContext>(
            sys, harness::LockPolicy{}, seed)) {
    wl->setup(*ctx);
    for (CoreId c = 0; c < sys.num_cores(); ++c) {
      sys.core(c).bind(c, sys.num_cores(), sys.hierarchy().l1(c),
                       [this](core::ThreadApi& api) {
                         return wl->thread_body(api, *ctx);
                       });
    }
  }

  harness::CmpSystem sys;
  std::unique_ptr<harness::Workload> wl;
  std::unique_ptr<harness::WorkloadContext> ctx;
};

std::vector<std::uint8_t> save_bytes(harness::CmpSystem& sys) {
  ArchiveWriter w;
  sys.save_state(w);
  return w.buffer();
}

void round_trip_system(const CmpConfig& cfg, const std::string& workload,
                       Cycle pause_cycle) {
  BoundSystem a(cfg, workload, /*scale=*/0.1, /*seed=*/1);
  std::vector<std::uint8_t> saved;
  a.sys.run({pause_cycle},
            [&](Cycle) { saved = save_bytes(a.sys); });
  ASSERT_FALSE(saved.empty())
      << workload << " finished before cycle " << pause_cycle;

  BoundSystem b(cfg, workload, /*scale=*/0.1, /*seed=*/1);
  ArchiveReader r(saved);
  b.sys.load_state(r);
  EXPECT_FALSE(r.next_section());  // load consumed every section
  EXPECT_EQ(b.sys.engine().now(), pause_cycle);
  EXPECT_EQ(save_bytes(b.sys), saved)
      << workload << ": reloaded machine re-serializes differently";
}

TEST(SystemCkpt, BaselineMachineRoundTrip) {
  CmpConfig cfg;
  cfg.num_cores = 8;
  // Mid-run: locks contended, coherence traffic in flight.
  round_trip_system(cfg, "SCTR", 4000);
}

TEST(SystemCkpt, EarlyCycleRoundTrip) {
  CmpConfig cfg;
  cfg.num_cores = 4;
  // Cycle 3: cold caches, first misses in flight in the mesh.
  round_trip_system(cfg, "MCTR", 3);
}

TEST(SystemCkpt, GuardedGlineArqRoundTrip) {
  CmpConfig cfg;
  cfg.num_cores = 8;
  cfg.fault.enabled = true;
  cfg.fault.seed = 11;
  cfg.fault.drop_rate = 2e-3;   // forces retransmission/ARQ state
  cfg.fault.garble_rate = 1e-3;
  cfg.fault.delay_rate = 1e-3;
  round_trip_system(cfg, "SCTR", 4000);
}

TEST(SystemCkpt, CoreCountMismatchRejected) {
  CmpConfig cfg;
  cfg.num_cores = 4;
  BoundSystem a(cfg, "SCTR", 0.1, 1);
  std::vector<std::uint8_t> saved;
  a.sys.run({100}, [&](Cycle) { saved = save_bytes(a.sys); });
  ASSERT_FALSE(saved.empty());

  CmpConfig other = cfg;
  other.num_cores = 8;
  BoundSystem b(other, "SCTR", 0.1, 1);
  ArchiveReader r(saved);
  EXPECT_THROW(b.sys.load_state(r), SimError);
}

// ---------------------------------------------------------------------
// RunSpec codec: everything a restore needs survives the round trip and
// re-encodes to the same bytes (the restore verifier depends on that).

TEST(RunSpecCkpt, RoundTripIsByteStable) {
  ckpt::RunSpec spec;
  spec.workload = "RAYTR";
  spec.scale = 0.37;
  spec.seed = 1234567;
  spec.cmp.num_cores = 16;
  spec.cmp.gline.num_glocks = 3;
  spec.cmp.gline.hierarchical = true;
  spec.cmp.fault.enabled = true;
  spec.cmp.fault.drop_rate = 1e-3;
  spec.cmp.engine_mode = EngineMode::kSerial;
  spec.policy.highly_contended = locks::LockKind::kGlock;
  spec.policy.regular = locks::LockKind::kTatas;
  spec.policy.overrides["tree"] = locks::LockKind::kMcs;
  spec.policy.overrides["apple"] = locks::LockKind::kTicket;
  spec.energy.noc_byte_hop_pj = 2.25;

  const auto encode = [](const ckpt::RunSpec& s) {
    ArchiveWriter w;
    w.begin_section(ckpt::tags::kMeta);
    ckpt::save_run_spec(w, s);
    w.end_section();
    return w.buffer();
  };
  const std::vector<std::uint8_t> bytes = encode(spec);

  ArchiveReader r(bytes);
  ASSERT_TRUE(r.next_section());
  const ckpt::RunSpec back = ckpt::load_run_spec(r);
  EXPECT_EQ(back.workload, "RAYTR");
  EXPECT_EQ(back.scale, 0.37);
  EXPECT_EQ(back.seed, 1234567u);
  EXPECT_EQ(back.cmp.num_cores, 16u);
  EXPECT_TRUE(back.cmp.gline.hierarchical);
  EXPECT_TRUE(back.cmp.fault.enabled);
  EXPECT_EQ(back.cmp.engine_mode, EngineMode::kSerial);
  EXPECT_EQ(back.policy.highly_contended, locks::LockKind::kGlock);
  EXPECT_EQ(back.policy.overrides.size(), 2u);
  EXPECT_EQ(back.policy.overrides.at("tree"), locks::LockKind::kMcs);
  EXPECT_EQ(back.energy.noc_byte_hop_pj, 2.25);
  EXPECT_EQ(encode(back), bytes);
}

TEST(RunSpecCkpt, MissingMetaSectionRejected) {
  // A structurally valid archive whose first section is not kMeta must
  // be rejected as a checkpoint with a structured error, not misread.
  ArchiveWriter w;
  w.begin_section(ckpt::tags::kEngine);
  w.u64(0);
  w.end_section();
  const std::string path =
      ::testing::TempDir() + "/ckpt_test_no_meta.ckpt";
  w.write_file(path);
  EXPECT_EQ(error_code([&] { ckpt::read_checkpoint_meta(path); }),
            CkptError::Code::kBadSection);
}

TEST(RunSpecCkpt, MissingFileIsIoError) {
  EXPECT_EQ(error_code([] {
              ckpt::read_checkpoint_meta("/nonexistent/nope.ckpt");
            }),
            CkptError::Code::kIo);
}

}  // namespace
}  // namespace glocks
