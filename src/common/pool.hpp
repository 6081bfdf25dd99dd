// Typed slab/free-list allocator for the message hot path.
//
// Steady-state simulation must perform zero heap allocations per
// message (ISSUE 4): every CohMsg that crosses the mesh is acquired
// from a Pool and returned to it when the receiver finishes, so after a
// short warmup the free list absorbs the whole churn and `new` is never
// reached again.  The pool is deliberately simple:
//
//   - storage grows in slabs (arrays of nodes), doubling in size, and
//     is only released wholesale when the pool is destroyed — a free()d
//     node goes onto an intrusive free list, not back to the heap;
//   - acquire() placement-news a value-initialised T into the node, so
//     a reused node can never leak stale protocol fields from the
//     message that previously occupied it (the pooled cousin of the
//     Packet::seq regeneration rule in noc/message.hpp);
//   - T must be trivially destructible: nodes on the free list hold no
//     live object, and slabs are dropped without running destructors.
//
// Ownership is expressed as PoolPtr<T> — a unique_ptr whose deleter
// hands the node back to its pool — so all the existing
// unique_ptr-based protocol plumbing keeps its move-only shape.
//
// Stats (heap_allocs / acquires / reuses / high_water) feed the --perf
// summary, and an observer hook lets the allocation-regression gate in
// tests/msg_pool_test.cpp count every real heap trip.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace glocks::common {

template <typename T>
class Pool;

/// unique_ptr deleter that returns the node to its owning pool.
template <typename T>
struct PoolDeleter {
  Pool<T>* pool = nullptr;
  void operator()(T* p) const;
};

template <typename T>
using PoolPtr = std::unique_ptr<T, PoolDeleter<T>>;

template <typename T>
class Pool {
  static_assert(std::is_trivially_destructible_v<T>,
                "pooled types must be trivially destructible: free-list "
                "nodes hold no live object and slabs are dropped "
                "wholesale, so a destructor would never run");

 public:
  struct Stats {
    std::uint64_t heap_allocs = 0;  ///< slabs fetched from the real heap
    std::uint64_t heap_bytes = 0;   ///< bytes of those slabs
    std::uint64_t acquires = 0;     ///< total acquire() calls
    std::uint64_t reuses = 0;       ///< acquires served from the free list
    std::uint64_t high_water = 0;   ///< peak simultaneously-live nodes
    std::uint64_t outstanding = 0;  ///< currently-live nodes
  };

  /// Observer invoked on every real heap allocation (the regression
  /// gate hooks this to prove the steady state never reaches `new`).
  using AllocHook = std::function<void(std::size_t bytes)>;

  explicit Pool(std::size_t first_slab_nodes = 64)
      : next_slab_nodes_(first_slab_nodes) {
    GLOCKS_CHECK(first_slab_nodes > 0, "pool slabs must hold >= 1 node");
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// A fresh value-initialised T.  Reuses a free-list node when one is
  /// available; otherwise carves from the current slab (growing it only
  /// when exhausted).
  PoolPtr<T> acquire() { return adopt(new (raw_node()) T{}); }

  /// A copy of `init` in a pooled node (the pending-forward snapshot in
  /// the L1 needs copy semantics).
  PoolPtr<T> acquire(const T& init) { return adopt(new (raw_node()) T(init)); }

  /// Rewraps a node whose ownership travelled as a raw pointer (a
  /// Packet payload crossing the mesh).  The pointer must have come
  /// from this pool's acquire()/release cycle.
  PoolPtr<T> adopt(T* p) { return PoolPtr<T>(p, PoolDeleter<T>{this}); }

  /// Returns a node to the free list.  Called by PoolDeleter.
  void release(T* p) {
    GLOCKS_CHECK(stats_.outstanding > 0, "pool release without acquire");
    --stats_.outstanding;
    Node* node = reinterpret_cast<Node*>(p);
    node->next = free_;
    free_ = node;
  }

  const Stats& stats() const { return stats_; }
  /// Checkpoint restore only: overwrites the counters wholesale (node
  /// storage itself is never serialized — pointees are re-acquired).
  void set_stats(const Stats& s) { stats_ = s; }
  void set_alloc_hook(AllocHook hook) { alloc_hook_ = std::move(hook); }

 private:
  union Node {
    Node* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  void* raw_node() {
    ++stats_.acquires;
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.high_water) {
      stats_.high_water = stats_.outstanding;
    }
    if (free_ != nullptr) {
      ++stats_.reuses;
      Node* node = free_;
      free_ = node->next;
      return node->storage;
    }
    if (bump_ == bump_end_) grow();
    return (bump_++)->storage;
  }

  void grow() {
    const std::size_t nodes = next_slab_nodes_;
    next_slab_nodes_ *= 2;
    ++stats_.heap_allocs;
    stats_.heap_bytes += nodes * sizeof(Node);
    if (alloc_hook_) alloc_hook_(nodes * sizeof(Node));
    slabs_.push_back(std::make_unique<Node[]>(nodes));
    bump_ = slabs_.back().get();
    bump_end_ = bump_ + nodes;
  }

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_ = nullptr;      // intrusive LIFO of released nodes
  Node* bump_ = nullptr;      // next never-used node in the newest slab
  Node* bump_end_ = nullptr;  // one past the newest slab
  std::size_t next_slab_nodes_;
  Stats stats_;
  AllocHook alloc_hook_;
};

template <typename T>
void PoolDeleter<T>::operator()(T* p) const {
  GLOCKS_CHECK(pool != nullptr, "pooled pointer with no owning pool");
  pool->release(p);
}

}  // namespace glocks::common
