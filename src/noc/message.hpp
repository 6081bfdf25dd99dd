// On-chip network message types and traffic accounting.
//
// Traffic is accounted in the three categories of paper Figure 9:
//   Request   — L1 miss requests travelling to a home directory,
//   Reply     — any message carrying a full cache line of data,
//   Coherence — invalidations, acks, forwards, upgrades and other
//               protocol-control messages.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace glocks::noc {

enum class MsgClass : std::uint8_t { kRequest = 0, kReply = 1, kCoherence = 2 };
inline constexpr std::size_t kNumMsgClasses = 3;

constexpr std::string_view to_string(MsgClass c) {
  switch (c) {
    case MsgClass::kRequest:
      return "Request";
    case MsgClass::kReply:
      return "Reply";
    case MsgClass::kCoherence:
      return "Coherence";
  }
  return "?";
}

/// Discriminates the opaque payload pointer a Packet carries. The NoC
/// never dereferences payloads; the tag lets the endpoint that installed
/// the pointer recover its type without virtual dispatch (payload nodes
/// live in typed pools and must stay trivially destructible, so the old
/// `struct PacketData { virtual ~PacketData(); }` base is gone).
enum class PayloadKind : std::uint8_t {
  kNone = 0,    ///< payload is null (raw NoC traffic, tests)
  kCohMsg = 1,  ///< mem::CohMsg owned by the hierarchy's message pool
};

/// One network message. With 75-byte links (Table II) every message fits a
/// single flit, so a Packet is also the unit of link bandwidth.
///
/// Trivially copyable by design: packets move through pooled ring
/// buffers by value. Ownership of `payload` rides along informally —
/// exactly one copy of a given seq is ever live in the fabric, and the
/// sink that receives it re-wraps the pointer into its owning pool.
/// `seq` is assigned fresh by Mesh::send for every injection (never
/// recycled from a pooled payload node), so traces stay unambiguous
/// even when the same payload storage is reused; debug builds check the
/// counter cannot wrap within a run.
struct Packet {
  CoreId src = 0;
  CoreId dst = 0;
  MsgClass cls = MsgClass::kRequest;
  PayloadKind kind = PayloadKind::kNone;
  std::uint32_t size_bytes = 0;
  std::uint64_t seq = 0;  ///< Unique per-mesh id, for debugging/tracing.
  void* payload = nullptr;
};

/// Byte/packet/hop counts per message class. The paper's Figure 9 metric
/// is bytes summed over every switch a message traverses, so `bytes` is
/// incremented once per hop.
class TrafficStats {
 public:
  void record_hop(MsgClass c, std::uint32_t bytes) {
    bytes_[idx(c)] += bytes;
    ++hops_[idx(c)];
  }
  void record_injection(MsgClass c) { ++packets_[idx(c)]; }

  std::uint64_t bytes(MsgClass c) const { return bytes_[idx(c)]; }
  std::uint64_t packets(MsgClass c) const { return packets_[idx(c)]; }
  std::uint64_t hops(MsgClass c) const { return hops_[idx(c)]; }
  std::uint64_t total_bytes() const {
    return bytes_[0] + bytes_[1] + bytes_[2];
  }
  std::uint64_t total_hops() const { return hops_[0] + hops_[1] + hops_[2]; }
  std::uint64_t total_packets() const {
    return packets_[0] + packets_[1] + packets_[2];
  }

 private:
  static std::size_t idx(MsgClass c) { return static_cast<std::size_t>(c); }
  std::array<std::uint64_t, kNumMsgClasses> bytes_{};
  std::array<std::uint64_t, kNumMsgClasses> packets_{};
  std::array<std::uint64_t, kNumMsgClasses> hops_{};
};

}  // namespace glocks::noc
