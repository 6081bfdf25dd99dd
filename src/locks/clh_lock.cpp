#include "locks/clh_lock.hpp"

namespace glocks::locks {

using core::Task;
using core::ThreadApi;
using mem::AmoKind;

ClhLock::ClhLock(mem::SimAllocator& heap, std::uint32_t num_threads)
    : tail_(heap.alloc_line()) {
  my_node_.reserve(num_threads);
  my_pred_.assign(num_threads, 0);
  for (std::uint32_t i = 0; i < num_threads; ++i) {
    my_node_.push_back(heap.alloc_line());
  }
  dummy_ = heap.alloc_line();
}

void ClhLock::preload(mem::BackingStore& memory) {
  // The dummy node is permanently "released"; tail starts pointing at it.
  memory.poke(dummy_, 0);
  memory.poke(tail_, dummy_);
}

Task<void> ClhLock::do_acquire(ThreadApi& t) {
  const std::uint32_t tid = t.thread_id();
  const Addr node = my_node_[tid];
  co_await t.store(node, 1);  // locked until our release
  const Word pred = co_await t.amo(AmoKind::kSwap, tail_, node);
  my_pred_[tid] = pred;
  // Spin on the predecessor's node: local once cached, invalidated
  // exactly once by the predecessor's release.
  co_await t.spin_until(pred, [](Word v) { return v == 0; });
}

Task<void> ClhLock::do_release(ThreadApi& t) {
  const std::uint32_t tid = t.thread_id();
  co_await t.store(my_node_[tid], 0);
  // Recycle: our node is now watched by our successor, so we inherit the
  // predecessor's (already released and unobserved) node for next time.
  my_node_[tid] = my_pred_[tid];
}

}  // namespace glocks::locks
