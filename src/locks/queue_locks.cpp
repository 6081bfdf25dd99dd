#include "locks/queue_locks.hpp"

#include "common/check.hpp"

namespace glocks::locks {

using core::Task;
using core::ThreadApi;
using mem::AmoKind;

// ---------------------------------------------------------------- Ticket

TicketLock::TicketLock(mem::SimAllocator& heap, std::uint32_t num_threads)
    : ticket_(heap.alloc_line()),
      now_serving_(heap.alloc_line()),
      my_ticket_(num_threads, 0) {}

Task<void> TicketLock::do_acquire(ThreadApi& t) {
  const Word my = co_await t.amo(AmoKind::kFetchAdd, ticket_, 1);
  my_ticket_[t.thread_id()] = my;
  co_await t.spin_until(now_serving_, [my](Word v) { return v == my; });
}

Task<void> TicketLock::do_release(ThreadApi& t) {
  // Only the owner writes now-serving, so a plain store suffices.
  co_await t.store(now_serving_, my_ticket_[t.thread_id()] + 1);
}

// ----------------------------------------------------------------- Array

ArrayLock::ArrayLock(mem::SimAllocator& heap, std::uint32_t num_threads)
    : next_idx_(heap.alloc_line()),
      slots_(heap.alloc_lines(num_threads)),
      num_slots_(num_threads),
      my_slot_(num_threads, 0) {}

void ArrayLock::preload(mem::BackingStore& memory) {
  memory.poke(slots_, 1);  // the first acquirer finds slot 0 armed
}

Task<void> ArrayLock::do_acquire(ThreadApi& t) {
  const Word idx =
      (co_await t.amo(AmoKind::kFetchAdd, next_idx_, 1)) % num_slots_;
  my_slot_[t.thread_id()] = idx;
  const Addr slot = slots_ + idx * kLineBytes;
  // Slot 0 starts at 1 (set by the harness preload); every other slot is
  // armed by the predecessor's release.
  co_await t.spin_until(slot, [](Word v) { return v != 0; });
  co_await t.store(slot, 0);  // consume the grant for the next rotation
}

Task<void> ArrayLock::do_release(ThreadApi& t) {
  const Word next = (my_slot_[t.thread_id()] + 1) % num_slots_;
  co_await t.store(slots_ + next * kLineBytes, 1);
}

// ------------------------------------------------------------------- MCS

McsLock::McsLock(mem::SimAllocator& heap, std::uint32_t num_threads)
    : tail_(heap.alloc_line()) {
  qnode_.reserve(num_threads);
  for (std::uint32_t i = 0; i < num_threads; ++i) {
    qnode_.push_back(heap.alloc_line());
  }
}

Task<void> McsLock::do_acquire(ThreadApi& t) {
  const Addr me = qnode_[t.thread_id()];
  co_await t.store(me + kNextOff, 0);
  const Word pred = co_await t.amo(AmoKind::kSwap, tail_, me);
  if (pred == 0) co_return;  // lock was free
  co_await t.store(me + kLockedOff, 1);
  co_await t.store(pred + kNextOff, me);  // link behind the predecessor
  // Local spin on our own node; the predecessor's release flips it.
  co_await t.spin_until(me + kLockedOff, [](Word v) { return v == 0; });
}

Task<void> McsLock::do_release(ThreadApi& t) {
  const Addr me = qnode_[t.thread_id()];
  Word next = co_await t.load(me + kNextOff);
  if (next == 0) {
    // No visible successor: try to swing tail back to null.
    const Word seen =
        co_await t.amo(AmoKind::kCompareSwap, tail_, 0, /*expected=*/me);
    if (seen == me) co_return;  // queue really was empty
    // A successor is in the middle of linking; wait for it to appear.
    next =
        co_await t.spin_until(me + kNextOff, [](Word v) { return v != 0; });
  }
  co_await t.store(next + kLockedOff, 0);
}

}  // namespace glocks::locks
