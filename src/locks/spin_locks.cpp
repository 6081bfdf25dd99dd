#include "locks/spin_locks.hpp"

#include <algorithm>

namespace glocks::locks {

using core::Task;
using core::ThreadApi;
using mem::AmoKind;

Task<void> SimpleLock::do_acquire(ThreadApi& t) {
  while (true) {
    const Word old = co_await t.amo(AmoKind::kTestAndSet, flag_, 0);
    if (old == 0) co_return;
  }
}

Task<void> SimpleLock::do_release(ThreadApi& t) {
  co_await t.store(flag_, 0);
}

Task<void> TatasLock::do_acquire(ThreadApi& t) {
  std::uint64_t delay = 4;
  while (true) {
    // Local spin: loads hit the L1 in Shared until the holder's release
    // invalidates the line.
    co_await t.spin_until(flag_, [](Word v) { return v == 0; });
    const Word old = co_await t.amo(AmoKind::kTestAndSet, flag_, 0);
    if (old == 0) co_return;
    if (backoff_cap_ > 0) {
      co_await t.compute(delay);
      delay = std::min<std::uint64_t>(delay * 2, backoff_cap_);
    }
  }
}

Task<void> TatasLock::do_release(ThreadApi& t) {
  co_await t.store(flag_, 0);
}

}  // namespace glocks::locks
