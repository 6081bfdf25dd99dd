// Checkpoint archive and run-spec tests.
//
// Layer 1: the TLV container itself — primitive round trips, and the
// rejection contract: bad magic, version skew, CRC corruption, and
// truncation are structured CkptErrors, never a crash or a silently
// wrong read.
//
// Layer 2: the RunSpec codec in the META section — the only machine
// description a restore reads back (machine state is replayed, never
// loaded; tests/ckpt_equivalence_test.cpp covers that path).
//
// Layer 3: the size of a whole-machine checkpoint, which tracks the
// cache sets a run has touched rather than the machine's capacity.
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"

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
  // archives still carry the mesh fast-forward flag and state v8 dropped;
  // v8 archives hold every cache way, where v9 holds only touched sets;
  // v9 archives write the G-line units' per-unit layouts, not the tree's.
  static_assert(ckpt::kMinFormatVersion > 9,
                "v9 archives must be refused as an older format");
  ArchiveWriter w;
  w.begin_section(1);
  w.u8(1);
  w.end_section();
  for (const std::uint32_t older : {ckpt::kMinFormatVersion - 1, 7u, 8u}) {
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

// ---------------------------------------------------------------------
// Checkpoint size: caches write only the sets the run has touched.

TEST(CkptSize, TracksTouchedSetsNotCapacity) {
  // A 64-core machine holds 64 x (512 L1 + 4096 L2) ways, about 24 MB
  // when every way is written. By cycle 2000 SCTR under GLock has
  // touched a few lines per tile: 68,839 bytes when this bound was
  // recorded. The bound leaves a little headroom, so any return to
  // writing whole caches fails here.
  ckpt::RunSpec spec;
  spec.workload = "SCTR";
  spec.scale = 0.1;
  spec.cmp.num_cores = 64;
  spec.policy.highly_contended = locks::LockKind::kGlock;
  std::vector<std::string> written;
  ckpt::run_with_checkpoints(spec, {2000}, ::testing::TempDir(), &written);
  ASSERT_EQ(written.size(), 1u);
  const auto bytes = std::filesystem::file_size(written.front());
  std::filesystem::remove(written.front());
  constexpr std::uintmax_t kRecordedBound = 72000;
  EXPECT_LT(bytes, kRecordedBound);
}

}  // namespace
}  // namespace glocks
