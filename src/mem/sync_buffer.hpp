// Synchronization-operation Buffer (SB): the paper's closest
// hardware-lock competitor (Monchiero et al. [16], Section II).
//
// An SB is a hardware module beside each memory/directory controller that
// queues and grants lock requests in FIFO order. Unlike GLocks it uses
// the *main data network*: an acquire is a control message to the lock's
// home tile, the grant is a control message back, so every handoff pays
// two mesh traversals and injects coherence-class traffic — exactly the
// coupling to the memory system the paper's Section II criticizes in
// hardware predecessors. Spinning, however, is local (a core-side station
// register), so SB avoids the invalidation storms of software locks.
//
// Message taxonomy: SbAcquire travels like a miss request (Request
// class); SbGrant / SbRelease are protocol control (Coherence class).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"
#include "mem/protocol.hpp"
#include "sim/engine.hpp"

namespace glocks::mem {

class Transport;

/// Per-core wait station: the core spins on `granted` (a register, no
/// memory traffic) after posting an acquire.
struct SbStation {
  bool waiting = false;
  bool granted = false;
  std::uint32_t lock_id = 0;
  /// The core spinning on `granted`; whoever sets the flag wakes it.
  sim::Component* owner = nullptr;
};

/// Checkpoint codec for the register fields (`owner` is wiring,
/// reconstructed by the system builder).
void save_sb_station(ckpt::ArchiveWriter& a, const SbStation& st);

struct SbStats {
  std::uint64_t acquires = 0;
  std::uint64_t grants = 0;
  std::uint64_t releases = 0;
  std::uint64_t max_queue = 0;
};

/// One tile's synchronization buffer (home side).
class SyncBuffer final : public sim::Component {
 public:
  /// `processing_latency` models the buffer's lookup/queue pipeline.
  SyncBuffer(CoreId tile, Transport& transport, Cycle processing_latency);

  void deliver(CohMsgPtr msg, Cycle ready);
  void tick(Cycle now) override;

  const SbStats& stats() const { return stats_; }
  bool quiescent() const;

  /// Checkpoint: lock table (sorted by lock id), inbox, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  struct LockState {
    bool held = false;
    CoreId owner = kNoCore;
    std::deque<CoreId> waiters;
  };
  struct Inbox {
    Cycle ready;
    CohMsgPtr msg;
  };

  void grant(std::uint32_t lock_id, CoreId to);

  CoreId tile_;
  Transport& transport_;
  Cycle latency_;
  std::unordered_map<std::uint32_t, LockState> locks_;
  std::deque<Inbox> inbox_;
  SbStats stats_;
};

}  // namespace glocks::mem
