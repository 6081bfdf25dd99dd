// Simulated thread state and the operation API exposed to workloads.
//
// The micro-op model: a thread is a coroutine; between awaits it runs
// "instantly", and all simulated time comes from the operations it awaits:
//
//   co_await api.compute(n)        n cycles of local computation
//   co_await api.load(a)           coherent 64-bit load
//   co_await api.store(a, v)       coherent 64-bit store
//   co_await api.amo(kind, a, v)   atomic read-modify-write (t&s, swap,
//                                  fetch&add, CAS), returns the old value
//   co_await api.spin_until(a, p)  load a until p(value) holds, returns
//                                  that value (a local spin loop)
//   co_await api.gl_acquire(g)     set lock_req[g]; spin until the local
//                                  G-line controller clears it (paper Fig 5)
//   co_await api.gl_release(g)     set lock_rel[g]; done when cleared
//
// Execution-time attribution (paper Figure 8 categories): every cycle a
// live thread is charged to Lock or Barrier when inside a lock/barrier
// primitive (primitives mark themselves with CategoryScope), otherwise to
// Memory when blocked on the memory system, otherwise to Busy.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "mem/l1_cache.hpp"
#include "mem/qolb.hpp"
#include "mem/sync_buffer.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace glocks::core {

enum class Category : std::uint8_t {
  kBusy = 0,
  kMemory = 1,
  kLock = 2,
  kBarrier = 3
};
inline constexpr std::size_t kNumCategories = 4;

/// The per-core architectural lock registers of paper Section III-C: one
/// lock_req / lock_rel flag pair per hardware GLock. The core sets them;
/// the local G-line controller clears them.
struct LockRegisters {
  explicit LockRegisters(std::uint32_t num_glocks)
      : req(num_glocks, false), rel(num_glocks, false) {}
  std::vector<bool> req;
  std::vector<bool> rel;
  /// The core spinning on these registers; whoever clears a flag wakes it
  /// so the event-driven kernel re-ticks the (possibly dormant) spinner.
  sim::Component* owner = nullptr;
};

/// Architectural registers for the G-line barrier network ([22]): the
/// core sets `arrive` and spins on `wait`; the barrier hardware consumes
/// `arrive` and clears `wait` when every core has arrived.
struct BarrierRegisters {
  explicit BarrierRegisters(std::uint32_t num_units)
      : arrive(num_units, false), wait(num_units, false) {}
  std::vector<bool> arrive;
  std::vector<bool> wait;
  /// The core spinning on `wait`; cleared-by-hardware flags wake it.
  sim::Component* owner = nullptr;
};

/// Everything the Core needs to schedule one simulated thread.
struct ThreadContext {
  enum class Wait : std::uint8_t {
    kReady,     ///< resume at the next core tick
    kCompute,   ///< compute_remaining cycles left
    kMem,       ///< memory operation in flight
    kGlineReq,  ///< spinning on lock_req[gline_id]
    kGlineRel,  ///< waiting for lock_rel[gline_id] to clear
    kGBarrier,  ///< spinning on barrier wait[gline_id]
    kSbWait,    ///< spinning on the SB station's grant register
    kQolbAcq,   ///< spinning on the QOLB station's grant register
    kQolbRel,   ///< waiting for a QOLB home-release to resolve
  };

  std::uint32_t thread_id = 0;
  std::uint32_t num_threads = 1;
  CoreId core = 0;
  mem::L1Cache* l1 = nullptr;
  LockRegisters* lock_regs = nullptr;
  BarrierRegisters* barrier_regs = nullptr;
  /// Core-side wait station for SB hardware locks.
  mem::SbStation* sb_station = nullptr;
  /// Core-side station for QOLB hardware locks.
  mem::QolbStation* qolb_station = nullptr;
  /// Optional observers (attached by the harness when tracing is on).
  trace::Tracer* tracer = nullptr;
  const sim::Engine* engine = nullptr;

  // Wake targets for the event-driven kernel (null-safe: Component::wake
  // is a no-op on an unregistered component, and these stay null in unit
  // tests that drive subsystems without a full CmpSystem).
  sim::Component* core_component = nullptr;  ///< the Core running this thread
  sim::Component* gline_system = nullptr;    ///< consumer of lock/barrier regs
  sim::Component* census = nullptr;          ///< contention census sampler

  Wait wait = Wait::kReady;
  std::coroutine_handle<> resume_point;
  /// The spin_until in progress: the word it loads and its exit test
  /// (spin_test == nullptr outside a spin). The predicate object lives in
  /// the suspended coroutine's frame, like resume_point.
  Addr spin_addr = 0;
  bool (*spin_test)(const void* pred, Word value) = nullptr;
  const void* spin_pred = nullptr;
  std::uint64_t compute_remaining = 0;
  Word mem_result = 0;
  GlockId gline_id = 0;
  bool finished = false;

  Category category = Category::kBusy;

  // ---- accounting ----
  std::array<std::uint64_t, kNumCategories> cycles{};  ///< per-category time
  std::uint64_t uops = 0;          ///< micro-ops retired (energy model)
  std::uint64_t gline_spin_cycles = 0;  ///< register-spin cycles (cheap)
  Cycle finish_cycle = 0;

  std::uint64_t total_cycles() const {
    return cycles[0] + cycles[1] + cycles[2] + cycles[3];
  }
};

namespace awaiters {

struct Compute {
  ThreadContext& ctx;
  std::uint64_t n;
  bool await_ready() const noexcept { return n == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    ctx.resume_point = h;
    ctx.wait = ThreadContext::Wait::kCompute;
    ctx.compute_remaining = n;
    ctx.uops += n;
  }
  void await_resume() const noexcept {}
};

inline mem::MemOp load_op(Addr a) {
  return mem::MemOp{mem::MemOp::Type::kLoad, a, 0, 0,
                    mem::AmoKind::kTestAndSet};
}

/// The L1 retire callback of a thread's memory op: stores the result and
/// hands the thread back to its core.
inline mem::L1Cache::Callback mem_done(ThreadContext& ctx) {
  ThreadContext* c = &ctx;
  return [c](Word result) {
    c->mem_result = result;
    c->wait = ThreadContext::Wait::kReady;
    if (c->core_component != nullptr) c->core_component->wake();
  };
}

/// Issues one memory micro-op; the thread waits until it retires.
inline void issue_mem(ThreadContext& ctx, const mem::MemOp& op) {
  ctx.wait = ThreadContext::Wait::kMem;
  ctx.uops += 1;
  ctx.l1->issue(op, mem_done(ctx));
}

struct Mem {
  ThreadContext& ctx;
  mem::MemOp op;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    ctx.resume_point = h;
    issue_mem(ctx, op);
  }
  Word await_resume() const noexcept { return ctx.mem_result; }
};

/// `while (!pred(load(addr))) {}` as one awaiter. The core re-issues the
/// load each time it retires with a value that fails `pred`, exactly as
/// the coroutine loop would, so the coroutine resumes only on exit; that
/// lets the event-driven kernel park the spinner on its L1 line.
template <typename Pred>
struct SpinUntil {
  ThreadContext& ctx;
  Addr addr;
  Pred pred;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    ctx.resume_point = h;
    ctx.spin_addr = addr;
    ctx.spin_test = &SpinUntil::test;
    ctx.spin_pred = &pred;
    issue_mem(ctx, load_op(addr));
  }
  Word await_resume() const noexcept { return ctx.mem_result; }
  static bool test(const void* p, Word value) {
    return (*static_cast<const Pred*>(p))(value);
  }
};

struct GBarrierOp {
  ThreadContext& ctx;
  std::uint32_t unit;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    GLOCKS_CHECK(ctx.barrier_regs != nullptr &&
                     unit < ctx.barrier_regs->arrive.size(),
                 "G-line barrier " << unit << " not provisioned");
    ctx.resume_point = h;
    ctx.gline_id = unit;
    ctx.uops += 1;  // the arrive register write
    ctx.barrier_regs->wait[unit] = true;   // armed before announcing
    ctx.barrier_regs->arrive[unit] = true;
    ctx.wait = ThreadContext::Wait::kGBarrier;
    if (ctx.gline_system != nullptr) ctx.gline_system->wake();
  }
  void await_resume() const noexcept {}
};

/// SB lock operations: acquire posts to the home tile's sync buffer and
/// spins on the local station; release is fire-and-forget (1 cycle).
struct SbOp {
  ThreadContext& ctx;
  std::uint32_t lock_id;
  CoreId home;
  bool is_release;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    GLOCKS_CHECK(ctx.sb_station != nullptr,
                 "SB lock used but no station is wired");
    ctx.resume_point = h;
    ctx.uops += 1;
    mem::CohMsgPtr msg = ctx.l1->make_msg();
    msg->line = lock_id;
    msg->requester = ctx.core;
    if (is_release) {
      msg->type = mem::CohType::kSbRelease;
      ctx.wait = ThreadContext::Wait::kReady;  // resumes next tick
    } else {
      ctx.sb_station->waiting = true;
      ctx.sb_station->granted = false;
      ctx.sb_station->lock_id = lock_id;
      msg->type = mem::CohType::kSbAcquire;
      ctx.wait = ThreadContext::Wait::kSbWait;
    }
    ctx.l1->send_sync(home, std::move(msg));
  }
  void await_resume() const noexcept {}
};

/// QOLB lock operations. Acquire enqueues at the home and spins on the
/// local station; release hands the lock straight to the announced
/// successor (one traversal) or consults the home when none is known.
struct QolbOp {
  ThreadContext& ctx;
  std::uint32_t lock_id;
  CoreId home;
  bool is_release;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    GLOCKS_CHECK(ctx.qolb_station != nullptr,
                 "QOLB lock used but no station is wired");
    mem::QolbStation& st = *ctx.qolb_station;
    ctx.resume_point = h;
    ctx.uops += 1;
    if (!is_release) {
      st.waiting = true;
      st.granted = false;
      st.holding = false;
      st.successor = kNoCore;
      st.lock_id = lock_id;
      mem::CohMsgPtr msg = ctx.l1->make_msg();
      msg->type = mem::CohType::kQolbEnq;
      msg->line = lock_id;
      msg->requester = ctx.core;
      ctx.l1->send_sync(home, std::move(msg));
      ctx.wait = ThreadContext::Wait::kQolbAcq;
      return;
    }
    GLOCKS_CHECK(st.holding && st.lock_id == lock_id,
                 "QOLB release without holding lock " << lock_id);
    if (st.successor != kNoCore) {
      // Direct cache-to-cache handoff: one traversal, no home round trip.
      mem::CohMsgPtr grant = ctx.l1->make_msg();
      grant->type = mem::CohType::kQolbGrant;
      grant->line = lock_id;
      grant->requester = st.successor;
      ctx.l1->send_sync(st.successor, std::move(grant));
      ++st.direct_grants_sent;
      st.successor = kNoCore;
      st.holding = false;
      ctx.wait = ThreadContext::Wait::kReady;  // resumes next tick
      return;
    }
    st.pending_home_release = true;
    st.release_done = false;
    mem::CohMsgPtr msg = ctx.l1->make_msg();
    msg->type = mem::CohType::kQolbRelHome;
    msg->line = lock_id;
    msg->requester = ctx.core;
    ctx.l1->send_sync(home, std::move(msg));
    ctx.wait = ThreadContext::Wait::kQolbRel;
  }
  void await_resume() const noexcept {}
};

struct GlineOp {
  ThreadContext& ctx;
  GlockId glock;
  bool is_release;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    GLOCKS_CHECK(ctx.lock_regs != nullptr,
                 "thread on core " << ctx.core
                                   << " uses GLocks but none are wired");
    GLOCKS_CHECK(glock < ctx.lock_regs->req.size(),
                 "GLock id " << glock << " exceeds provisioned hardware");
    ctx.resume_point = h;
    ctx.gline_id = glock;
    ctx.uops += 1;  // the single register-assignment instruction
    if (is_release) {
      ctx.lock_regs->rel[glock] = true;
      ctx.wait = ThreadContext::Wait::kGlineRel;
    } else {
      ctx.lock_regs->req[glock] = true;
      ctx.wait = ThreadContext::Wait::kGlineReq;
    }
    if (ctx.gline_system != nullptr) ctx.gline_system->wake();
  }
  void await_resume() const noexcept {}
};

}  // namespace awaiters

/// The operation handle workload / lock code holds. One per thread, owned
/// by the Core; stable address for the lifetime of the run.
class ThreadApi {
 public:
  explicit ThreadApi(ThreadContext& ctx) : ctx_(ctx) {}
  ThreadApi(const ThreadApi&) = delete;
  ThreadApi& operator=(const ThreadApi&) = delete;

  std::uint32_t thread_id() const { return ctx_.thread_id; }
  std::uint32_t num_threads() const { return ctx_.num_threads; }
  CoreId core() const { return ctx_.core; }

  awaiters::Compute compute(std::uint64_t cycles) { return {ctx_, cycles}; }

  awaiters::Mem load(Addr a) { return {ctx_, awaiters::load_op(a)}; }
  /// Loads `a` until `pred(value)` holds and returns that value: the
  /// local spin loop `while (!pred(v = load(a))) {}`, one load per
  /// iteration. `pred` must be a pure function of the value.
  template <typename Pred>
  awaiters::SpinUntil<Pred> spin_until(Addr a, Pred pred) {
    return {ctx_, a, std::move(pred)};
  }
  awaiters::Mem store(Addr a, Word v) {
    return {ctx_, mem::MemOp{mem::MemOp::Type::kStore, a, v, 0,
                             mem::AmoKind::kTestAndSet}};
  }
  /// Atomic read-modify-write; returns the value before the update.
  awaiters::Mem amo(mem::AmoKind kind, Addr a, Word operand,
                    Word expected = 0) {
    return {ctx_, mem::MemOp{mem::MemOp::Type::kAmo, a, operand, expected,
                             kind}};
  }

  awaiters::GlineOp gl_acquire(GlockId g) { return {ctx_, g, false}; }
  awaiters::GlineOp gl_release(GlockId g) { return {ctx_, g, true}; }
  /// Arrive at hardware barrier `unit` and spin until everyone has.
  awaiters::GBarrierOp gbarrier_await(std::uint32_t unit) {
    return {ctx_, unit};
  }
  /// SB hardware lock ops (home = the tile hosting the lock's buffer).
  awaiters::SbOp sb_acquire(std::uint32_t lock_id, CoreId home) {
    return {ctx_, lock_id, home, false};
  }
  awaiters::SbOp sb_release(std::uint32_t lock_id, CoreId home) {
    return {ctx_, lock_id, home, true};
  }
  /// QOLB hardware lock ops.
  awaiters::QolbOp qolb_acquire(std::uint32_t lock_id, CoreId home) {
    return {ctx_, lock_id, home, false};
  }
  awaiters::QolbOp qolb_release(std::uint32_t lock_id, CoreId home) {
    return {ctx_, lock_id, home, true};
  }

  Category category() const { return ctx_.category; }
  void set_category(Category c) { ctx_.category = c; }

  /// Non-null when event tracing is attached to this run.
  trace::Tracer* tracer() const { return ctx_.tracer; }
  /// Current simulated cycle (0 when no engine is attached for tracing).
  Cycle now() const { return ctx_.engine != nullptr ? ctx_.engine->now() : 0; }

  const ThreadContext& context() const { return ctx_; }

 private:
  friend class CategoryScope;
  ThreadContext& ctx_;
};

/// RAII marker that attributes the enclosed simulated time to a category
/// (locks use kLock, barriers kBarrier). Restores the previous category so
/// nesting (a barrier built from locks) attributes to the outermost scope.
class CategoryScope {
 public:
  CategoryScope(ThreadApi& api, Category c)
      : ctx_(api.ctx_), saved_(ctx_.category) {
    // Outermost scope wins: the paper charges MCS memory traffic inside an
    // acquire to Lock, and a lock used inside a barrier to Barrier.
    if (saved_ == Category::kBusy || saved_ == Category::kMemory) {
      ctx_.category = c;
    }
  }
  ~CategoryScope() { ctx_.category = saved_; }
  CategoryScope(const CategoryScope&) = delete;
  CategoryScope& operator=(const CategoryScope&) = delete;

 private:
  ThreadContext& ctx_;
  Category saved_;
};

}  // namespace glocks::core
