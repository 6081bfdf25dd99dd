// QOLB-style hardware lock support (Kägi, Burger & Goodman, "Efficient
// Synchronization: Let Them Eat QOLB", ISCA 1997 — the paper's Section II
// hardware predecessor).
//
// QOLB's essence: a hardware queue of waiting *caches*, with the lock
// handed directly from the releaser's cache to its successor's — one
// network traversal per handoff instead of SB's two (release to home +
// grant from home). We keep the queue pointers at the lock's home node
// (the directory knows the tail, and tells each prior tail who its
// successor is), but the grant itself travels cache-to-cache:
//
//   enqueue:  core -> home   QolbEnq
//             home: lock free -> QolbGrant back (cold grant);
//                   else     -> QolbSetSucc to the previous tail
//   release:  station has a successor -> QolbGrant DIRECT to it;
//             else -> QolbRelHome; the home either frees the lock or —
//             if an enqueue raced in — grants the new waiter itself.
//
// The waiter spins on its local station register (no memory traffic),
// like SB and GLocks.
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

/// Per-core QOLB station: spin register + the successor link that makes
/// the direct handoff possible.
struct QolbStation {
  bool waiting = false;
  bool granted = false;
  std::uint32_t lock_id = 0;
  /// Successor core for the lock this core currently holds/waits on;
  /// kNoCore when none has been announced.
  CoreId successor = kNoCore;
  /// Set while this core holds the lock (guards release bookkeeping).
  bool holding = false;
  /// Release sent to the home; waiting for RelAck / RelRetry.
  bool pending_home_release = false;
  /// The release has fully resolved (freed at home, or handed over).
  bool release_done = false;
  /// One-hop handoffs performed from this station (both the common
  /// direct-release path and the RelRetry race path).
  std::uint64_t direct_grants_sent = 0;
  /// The core spinning on `granted` / `release_done`; whoever flips a
  /// spin flag wakes it.
  sim::Component* owner = nullptr;
};

/// Checkpoint codec for the register fields (`owner` is wiring,
/// reconstructed by the system builder).
void save_qolb_station(ckpt::ArchiveWriter& a, const QolbStation& st);

struct QolbStats {
  std::uint64_t enqueues = 0;
  std::uint64_t cold_grants = 0;    ///< home -> requester (lock was free)
  std::uint64_t direct_grants = 0;  ///< releaser -> successor, one hop
  std::uint64_t home_releases = 0;  ///< releases that had to consult home
};

/// Home-side queue manager for QOLB locks (one per tile, like the
/// directory bank it would extend).
class QolbHome final : public sim::Component {
 public:
  QolbHome(CoreId tile, Transport& transport, Cycle processing_latency);

  void deliver(CohMsgPtr msg, Cycle ready);
  void tick(Cycle now) override;

  const QolbStats& stats() const { return stats_; }
  bool quiescent() const { return inbox_.empty(); }

  /// Checkpoint: lock table (sorted by lock id), inbox, stats.
  void save(ckpt::ArchiveWriter& a) const;

 private:
  struct LockState {
    bool held = false;
    CoreId tail = kNoCore;  ///< last enqueued core (holder if queue empty)
  };
  struct Inbox {
    Cycle ready;
    CohMsgPtr msg;
  };

  void send(CoreId dst, CohType type, std::uint32_t lock_id,
            CoreId requester);

  CoreId tile_;
  Transport& transport_;
  Cycle latency_;
  std::unordered_map<std::uint32_t, LockState> locks_;
  std::deque<Inbox> inbox_;
  QolbStats stats_;
};

/// Station-side message handling (grants, successor announcements,
/// release acks).
void qolb_station_on_message(QolbStation& st, const CohMsg& msg,
                             Transport& transport, CoreId self);

}  // namespace glocks::mem
