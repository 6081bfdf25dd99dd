#include "sync/barrier.hpp"

#include "common/check.hpp"

namespace glocks::sync {

using core::Task;
using core::ThreadApi;
using mem::AmoKind;

Task<void> Barrier::await(ThreadApi& t) {
  core::CategoryScope scope(t, core::Category::kBarrier);
  const Cycle begin = t.now();
  co_await do_await(t);
  if (trace::Tracer* tr = t.tracer()) {
    tr->complete(t.thread_id(), begin, t.now(), "barrier");
  }
}

// ------------------------------------------------------------------ Tree

TreeBarrier::TreeBarrier(mem::SimAllocator& heap, std::uint32_t num_threads)
    : num_threads_(num_threads), round_(num_threads, 0) {
  GLOCKS_CHECK(num_threads >= 1, "barrier needs at least one thread");
  leaf_of_.resize(num_threads);
  if (num_threads == 1) return;

  // Level 0: pair up threads. Then pair up nodes until one root remains.
  std::uint32_t level_first = 0;
  std::uint32_t level_count = (num_threads + 1) / 2;
  for (std::uint32_t i = 0; i < level_count; ++i) {
    const std::uint32_t arity = (2 * i + 1 < num_threads) ? 2 : 1;
    nodes_.push_back(
        Node{heap.alloc_line(), heap.alloc_line(), arity, -1});
    leaf_of_[2 * i] = i;
    if (arity == 2) leaf_of_[2 * i + 1] = i;
  }
  while (level_count > 1) {
    const std::uint32_t next_first = level_first + level_count;
    const std::uint32_t next_count = (level_count + 1) / 2;
    for (std::uint32_t i = 0; i < next_count; ++i) {
      const std::uint32_t arity =
          (2 * i + 1 < level_count) ? 2 : 1;
      nodes_.push_back(
          Node{heap.alloc_line(), heap.alloc_line(), arity, -1});
      nodes_[level_first + 2 * i].parent =
          static_cast<int>(next_first + i);
      if (arity == 2) {
        nodes_[level_first + 2 * i + 1].parent =
            static_cast<int>(next_first + i);
      }
    }
    level_first = next_first;
    level_count = next_count;
  }
}

Task<void> TreeBarrier::do_await(ThreadApi& t) {
  const std::uint32_t tid = t.thread_id();
  if (num_threads_ == 1) {
    ++stats_.episodes;
    co_return;
  }
  const Word r = ++round_[tid];

  // Climb: last arrival at each node continues upward.
  std::vector<std::uint32_t> won;
  std::uint32_t node = leaf_of_[tid];
  bool root_winner = false;
  while (true) {
    const Node& n = nodes_[node];
    const Word before = co_await t.amo(AmoKind::kFetchAdd, n.count, 1);
    GLOCKS_CHECK(before < n.arity, "barrier node over-subscribed");
    if (before + 1 == n.arity) {
      co_await t.store(n.count, 0);  // reset before anyone starts round r+1
      if (n.parent < 0) {
        root_winner = true;
        break;
      }
      won.push_back(node);
      node = static_cast<std::uint32_t>(n.parent);
    } else {
      // Lost the race here: spin locally until this round's wake-up wave.
      co_await t.spin_until(n.release, [r](Word v) { return v == r; });
      break;
    }
  }

  // Descend: wake the loser at every node we won, top-down so the wave
  // fans out in parallel (log N wake-up latency).
  if (root_winner) {
    ++stats_.episodes;
    co_await t.store(nodes_[node].release, r);
  }
  for (auto it = won.rbegin(); it != won.rend(); ++it) {
    co_await t.store(nodes_[*it].release, r);
  }
}

// ---------------------------------------------------------------- G-line

Task<void> GlineBarrier::do_await(ThreadApi& t) {
  // Every thread passes every episode; thread 0 counts the rounds.
  if (t.thread_id() == 0) ++stats_.episodes;
  co_await t.gbarrier_await(unit_);
}

// --------------------------------------------------------------- Central

CentralBarrier::CentralBarrier(mem::SimAllocator& heap,
                               std::uint32_t num_threads)
    : num_threads_(num_threads),
      count_(heap.alloc_line()),
      sense_(heap.alloc_line()),
      round_(num_threads, 0) {}

Task<void> CentralBarrier::do_await(ThreadApi& t) {
  const Word r = ++round_[t.thread_id()];
  const Word before = co_await t.amo(AmoKind::kFetchAdd, count_, 1);
  if (before + 1 == num_threads_) {
    ++stats_.episodes;
    co_await t.store(count_, 0);
    co_await t.store(sense_, r);  // releases every spinning thread at once
  } else {
    co_await t.spin_until(sense_, [r](Word v) { return v == r; });
  }
}

}  // namespace glocks::sync
