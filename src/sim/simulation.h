// Discrete-event simulation engine (process-oriented, single-threaded).
//
// This is the project's replacement for the DeNet simulation language used by
// the paper: processes are C++20 coroutines (Task<>), time advances through a
// central event calendar, and all inter-process interaction (resources,
// channels, triggers) is mediated by the calendar so execution order is
// deterministic for a given seed.
//
// Calendar fast path (see DESIGN.md §12): events sharing a timestamp are
// batched into a *bucket* (an append-ordered vector of 16-byte entries) and
// the 4-ary heap orders whole buckets by (time, first sequence number), so
// the per-event cost of a same-instant burst is one vector append instead of
// a heap sift. Two caches make the common patterns O(1): appends at the
// instant currently dispatching go straight into the live bucket (resource
// grants, channel sends, trigger fires), and appends for the most recently
// targeted future instant reuse that bucket (synchronized delays).
//
// Cancellable events (ScheduleAt/ScheduleAfter) live in a slab of reusable
// records addressed by (slot, generation); cancellation flips the slot's
// generation — O(1), no hash lookup — and stale bucket entries are discarded
// lazily at dispatch. Plain coroutine resumes skip the slab entirely and
// store the handle in the bucket entry (no caller ever cancels a resume),
// unless a tracer is armed and needs per-event ids.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/task.h"

namespace declust::sim {

/// Simulated time in milliseconds.
using SimTime = double;

/// Identifier of a scheduled event; usable with Simulation::Cancel.
/// Encodes (generation << 32) | slot; 0 is never a valid id.
using EventId = uint64_t;

namespace detail {

/// \brief Move-only type-erased callable with inline small-buffer storage.
///
/// Callables up to kInlineBytes are stored in place (no allocation); larger
/// ones fall back to the heap. The buffer is sized so every hot-path lambda
/// in the tree fits inline (tests/sim/sbo_fit_test static_asserts the
/// hardware models' callbacks), keeping the calendar allocation-free.
class SmallFn {
 public:
  static constexpr size_t kInlineBytes = 64;

  SmallFn() = default;
  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      Reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { Reset(); }

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool FitsInline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    Reset();
    if constexpr (FitsInline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = InlineOps<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = HeapOps<D>();
    }
  }

  void Invoke() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static const Ops* InlineOps() {
    static const Ops ops = {
        [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
        [](void* dst, void* src) {
          D* s = std::launder(reinterpret_cast<D*>(src));
          ::new (dst) D(std::move(*s));
          s->~D();
        },
        [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); }};
    return &ops;
  }

  template <typename D>
  static const Ops* HeapOps() {
    static const Ops ops = {
        [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); }};
    return &ops;
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

/// \brief Invariant-audit hook interface (see src/audit).
///
/// Follows the fault/obs pattern: the Simulation (and the Resources bound to
/// it) hold a nullable pointer and the default path pays only a null check.
/// When armed (`--audit`), the calendar reports every schedule / dispatch /
/// cancel transition and resources report their queue state after each
/// acquire/release, so an external auditor can enforce the conservation
/// identities continuously instead of sampling them in unit tests.
class AuditHook {
 public:
  virtual ~AuditHook() = default;

  /// A new event entered the calendar for absolute time `at` (`now` is the
  /// clock at scheduling time; `at < now` is a violation).
  virtual void OnEventScheduled(SimTime at, SimTime now) = 0;
  /// An event is about to fire at `at`; `prev_now` is the clock before the
  /// dispatch (`at < prev_now` would mean time ran backwards).
  virtual void OnEventDispatched(SimTime at, SimTime prev_now) = 0;
  /// A pending event was cancelled (O(1) generation flip).
  virtual void OnEventCancelled() = 0;
  /// A Resource changed state (acquire, enqueue, or release). Reported
  /// values are the post-transition state.
  virtual void OnResourceTransition(const char* name, int capacity,
                                    int available, size_t waiters) = 0;
};

/// \brief The event calendar and process registry.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes runs reproducible. A Simulation is confined to one thread;
/// parallel sweeps give each worker its own instance (src/exp/runner).
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (ms).
  SimTime now() const { return now_; }

  /// Starts a detached process after `delay` ms. The simulation owns the
  /// coroutine frame from this point on.
  void Spawn(Task<> task, SimTime delay = 0.0);

  /// Schedules `fn` (any void() callable) to run at absolute time `at`
  /// (>= now). Callables up to detail::SmallFn::kInlineBytes are stored
  /// inline in the event slab — no allocation.
  template <typename Fn>
  EventId ScheduleAt(SimTime at, Fn&& fn) {
    assert(at >= now_);
    const uint32_t slot = AllocSlot();
    EventSlot& s = slots_[slot];
    s.fn.Emplace(std::forward<Fn>(fn));
    s.pending = true;
    AddEntry(at, Entry{slot, s.gen});
    return MakeId(s.gen, slot);
  }

  /// Schedules `fn` to run after `delay` ms.
  template <typename Fn>
  EventId ScheduleAfter(SimTime delay, Fn&& fn) {
    return ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  /// Schedules resumption of a suspended coroutine at absolute time `at`.
  /// Resumes are not cancellable: the fast path stores the bare handle and
  /// returns 0. (With a tracer armed, resumes take the slab path so the
  /// trace shows per-event ids.) No-op while the simulation is being torn
  /// down.
  EventId ScheduleResume(SimTime at, std::coroutine_handle<> h);

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled. O(1): flips the event slot's generation; the stale
  /// bucket entry is discarded lazily when its instant dispatches.
  bool Cancel(EventId id);

  /// Awaitable that suspends the calling process for `dt` ms.
  auto WaitFor(SimTime dt) {
    struct Awaiter {
      Simulation* sim;
      SimTime dt;
      bool await_ready() const noexcept { return dt <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->ScheduleResume(sim->now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Runs until the calendar is empty or Stop() is called.
  void Run();

  /// Runs until simulated time reaches `t` (events at exactly `t` fire).
  /// Afterwards now() == t unless the run stopped earlier.
  void RunUntil(SimTime t);

  /// Requests that Run/RunUntil return after the current event.
  void Stop() { stop_requested_ = true; }

  bool stop_requested() const { return stop_requested_; }

  /// Clears a previous Stop() so the simulation can be resumed.
  void ClearStop() { stop_requested_ = false; }

  /// Number of events dispatched so far (for diagnostics/benchmarks).
  uint64_t events_dispatched() const { return events_dispatched_; }

  /// Number of events currently pending (scheduled, not yet fired or
  /// cancelled).
  size_t pending_events() const { return live_events_; }

  /// High-water mark of pending_events() over the simulation's lifetime
  /// (calendar population a run actually needed; reported by obs metrics).
  size_t peak_pending_events() const { return peak_live_events_; }

  /// True during teardown; resources consult this to avoid waking processes
  /// that are about to be destroyed.
  bool draining() const { return draining_; }

  /// Installs a tracer invoked before every dispatched event with
  /// (time, event id, is_coroutine_resume). Pass nullptr to disable.
  /// Intended for debugging simulations; adds one indirect call per event.
  void SetTracer(std::function<void(SimTime, EventId, bool)> tracer) {
    tracer_ = std::move(tracer);
  }

  /// Installs an invariant auditor notified of every calendar transition
  /// (and consulted by Resources bound to this simulation). Pass nullptr to
  /// disable; the disabled path costs one predictable branch per event.
  void SetAuditHook(AuditHook* audit) { audit_ = audit; }
  AuditHook* audit_hook() const { return audit_; }

 private:
  friend void detail::ReleaseDetachedFrame(Simulation* sim,
                                           detail::PromiseBase& promise,
                                           std::coroutine_handle<> h);

  /// One reusable event record in the slab. `gen` distinguishes the slot's
  /// successive occupants: a bucket entry whose generation no longer matches
  /// was cancelled (or belongs to a previous occupant) and is skipped.
  struct EventSlot {
    std::coroutine_handle<> handle{};  // set for traced coroutine resumes
    detail::SmallFn fn;                // set for callback events
    uint32_t gen = 1;
    uint32_t next_free = kNoSlot;
    bool pending = false;
  };

  /// One calendar entry inside a bucket. `gen == 0` marks a direct
  /// coroutine resume with the handle address in `bits` (slab generations
  /// are never 0); otherwise `bits` is a slab slot index and `gen` its
  /// expected generation.
  struct Entry {
    uint64_t bits;
    uint32_t gen;
    uint32_t reserved = 0;
  };

  /// All events scheduled for one instant, in scheduling (FIFO) order.
  /// `first_seq` is the global sequence number of the first entry; buckets
  /// for the same instant (possible after cache displacement) cover
  /// disjoint, increasing sequence ranges, so ordering whole buckets by
  /// (time, first_seq) reproduces exact global FIFO order.
  struct Bucket {
    SimTime time = 0.0;
    uint64_t first_seq = 0;
    size_t cursor = 0;
    std::vector<Entry> entries;
    Bucket* next_free = nullptr;
  };

  /// Heap element: bucket key copied inline so sifts stay pointer-chase
  /// free.
  struct HeapEnt {
    SimTime time;
    uint64_t first_seq;
    Bucket* bucket;
  };

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Arity of the bucket heap: shallower than a binary heap, and the
  /// four-way child comparison is cache-friendly on 24-byte entries.
  static constexpr size_t kHeapArity = 4;

  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  /// Pops a slot off the free list (or grows the slab).
  uint32_t AllocSlot();
  /// Returns the slot to the free list and bumps its generation.
  void FreeSlot(uint32_t idx);
  /// Appends an event entry for absolute time `at` (audits + accounting).
  void AddEntry(SimTime at, Entry e);
  Bucket* AllocBucket(SimTime at, uint64_t first_seq);
  void RecycleBucket(Bucket* b);
  /// Pops the earliest bucket, folding any same-instant successors into it
  /// so the live bucket always holds the instant's complete FIFO tail.
  Bucket* PopEarliestBucket();
  void HeapPush(Bucket* b);
  void HeapPopRoot();

  // Dispatches the next event; returns false if the calendar is exhausted or
  // the next event lies beyond `horizon`.
  bool Step(SimTime horizon);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_dispatched_ = 0;
  size_t live_events_ = 0;
  size_t peak_live_events_ = 0;
  bool stop_requested_ = false;
  bool draining_ = false;

  std::function<void(SimTime, EventId, bool)> tracer_;
  AuditHook* audit_ = nullptr;
  std::vector<HeapEnt> heap_;
  /// Bucket currently dispatching (its time == now()); same-instant
  /// schedules append here.
  Bucket* current_ = nullptr;
  /// Most recently targeted future bucket; repeat schedules for its
  /// instant append here instead of creating a duplicate bucket.
  Bucket* future_ = nullptr;
  Bucket* bucket_free_ = nullptr;
  std::vector<EventSlot> slots_;
  uint32_t free_head_ = kNoSlot;
  /// Detached (spawned) processes, linked intrusively through their
  /// promises in spawn order; teardown destroys any still suspended.
  detail::PromiseBase* detached_head_ = nullptr;
};

}  // namespace declust::sim
