#include "src/sim/simulation.h"

#include <limits>

namespace declust::sim {

namespace detail {

void ReleaseDetachedFrame(Simulation* sim, PromiseBase& promise,
                          std::coroutine_handle<> h) {
  if (promise.det_prev != nullptr) {
    promise.det_prev->det_next = promise.det_next;
  } else {
    sim->detached_head_ = promise.det_next;
  }
  if (promise.det_next != nullptr) {
    promise.det_next->det_prev = promise.det_prev;
  }
  // The coroutine is suspended at its final suspend point; destroying the
  // frame here is well-defined.
  h.destroy();
}

}  // namespace detail

Simulation::~Simulation() {
  draining_ = true;
  // Destroy still-suspended detached processes in spawn order. Destroying a
  // frame runs the destructors of its locals (e.g. resource guards);
  // draining_ suppresses any wake-ups those destructors would otherwise
  // schedule.
  detail::PromiseBase* p = detached_head_;
  while (p != nullptr) {
    detail::PromiseBase* next = p->det_next;
    p->self.destroy();
    p = next;
  }
  // Pending callback events are destroyed by the slots_ vector's destructor
  // (SmallFn releases inline or heap-held callables either way). Buckets
  // are plain storage: free the live ones, then the recycled pool.
  for (const HeapEnt& e : heap_) delete e.bucket;
  delete current_;
  while (bucket_free_ != nullptr) {
    Bucket* next = bucket_free_->next_free;
    delete bucket_free_;
    bucket_free_ = next;
  }
}

void Simulation::Spawn(Task<> task, SimTime delay) {
  assert(task.valid());
  auto h = task.Release();
  detail::PromiseBase& p = h.promise();
  p.detached_owner = this;
  p.self = h;
  p.det_next = detached_head_;
  if (detached_head_ != nullptr) detached_head_->det_prev = &p;
  detached_head_ = &p;
  ScheduleResume(now_ + delay, h);
}

uint32_t Simulation::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  assert(slots_.size() < kNoSlot);
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::FreeSlot(uint32_t idx) {
  EventSlot& s = slots_[idx];
  s.pending = false;
  s.handle = nullptr;
  s.fn.Reset();
  if (++s.gen == 0) s.gen = 1;  // keep EventId 0 invalid even for slot 0
  s.next_free = free_head_;
  free_head_ = idx;
}

Simulation::Bucket* Simulation::AllocBucket(SimTime at, uint64_t first_seq) {
  Bucket* b;
  if (bucket_free_ != nullptr) {
    b = bucket_free_;
    bucket_free_ = b->next_free;
  } else {
    b = new Bucket();
  }
  b->time = at;
  b->first_seq = first_seq;
  b->cursor = 0;
  b->next_free = nullptr;
  assert(b->entries.empty());
  return b;
}

void Simulation::RecycleBucket(Bucket* b) {
  b->entries.clear();  // POD entries; capacity retained for reuse
  b->next_free = bucket_free_;
  bucket_free_ = b;
}

void Simulation::HeapPush(Bucket* b) {
  heap_.push_back(HeapEnt{b->time, b->first_seq, b});
  // Sift up (arity-d heap ordered by (time, first_seq)).
  size_t i = heap_.size() - 1;
  const HeapEnt entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kHeapArity;
    const HeapEnt& p = heap_[parent];
    if (p.time < entry.time ||
        (p.time == entry.time && p.first_seq < entry.first_seq)) {
      break;
    }
    heap_[i] = p;
    i = parent;
  }
  heap_[i] = entry;
}

void Simulation::HeapPopRoot() {
  const HeapEnt last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  // Sift the former last entry down from the root.
  const size_t n = heap_.size();
  size_t i = 0;
  for (;;) {
    const size_t first_child = i * kHeapArity + 1;
    if (first_child >= n) break;
    const size_t last_child = std::min(first_child + kHeapArity, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      const HeapEnt& a = heap_[c];
      const HeapEnt& b = heap_[best];
      if (a.time < b.time ||
          (a.time == b.time && a.first_seq < b.first_seq)) {
        best = c;
      }
    }
    const HeapEnt& m = heap_[best];
    if (last.time < m.time ||
        (last.time == m.time && last.first_seq < m.first_seq)) {
      break;
    }
    heap_[i] = m;
    i = best;
  }
  heap_[i] = last;
}

void Simulation::AddEntry(SimTime at, Entry e) {
  const uint64_t seq = next_seq_++;
  if (current_ != nullptr && at == current_->time) {
    // Same-instant schedule while that instant dispatches: FIFO tail of the
    // live bucket (resource grants, channel sends, trigger releases).
    current_->entries.push_back(e);
  } else if (future_ != nullptr && at == future_->time) {
    // Repeat schedule for the most recently targeted future instant
    // (synchronized delays all landing on now + dt).
    future_->entries.push_back(e);
  } else {
    Bucket* b = AllocBucket(at, seq);
    b->entries.push_back(e);
    HeapPush(b);
    future_ = b;
  }
  ++live_events_;
  if (live_events_ > peak_live_events_) peak_live_events_ = live_events_;
  if (audit_ != nullptr) audit_->OnEventScheduled(at, now_);
}

EventId Simulation::ScheduleResume(SimTime at, std::coroutine_handle<> h) {
  if (draining_) return 0;
  assert(at >= now_);
  if (tracer_) {
    // Slab path so the tracer sees a stable per-event id.
    const uint32_t slot = AllocSlot();
    EventSlot& s = slots_[slot];
    s.handle = h;
    s.pending = true;
    AddEntry(at, Entry{slot, s.gen});
    return MakeId(s.gen, slot);
  }
  AddEntry(at, Entry{reinterpret_cast<uint64_t>(h.address()), 0});
  return 0;
}

bool Simulation::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  EventSlot& s = slots_[slot];
  if (s.gen != gen || !s.pending) return false;
  --live_events_;
  if (audit_ != nullptr) audit_->OnEventCancelled();
  // Bumping the generation invalidates the bucket entry in place; it is
  // discarded when its instant dispatches.
  FreeSlot(slot);
  return true;
}

Simulation::Bucket* Simulation::PopEarliestBucket() {
  HeapEnt top = heap_.front();
  HeapPopRoot();
  if (top.bucket == future_) future_ = nullptr;
  // Fold same-instant successors (created when the future-bucket cache was
  // displaced between schedules for this instant) into one bucket. Heap
  // order pops them by first_seq, and their sequence ranges are disjoint,
  // so concatenation preserves exact FIFO order.
  while (!heap_.empty() && heap_.front().time == top.time) {
    HeapEnt next = heap_.front();
    HeapPopRoot();
    if (next.bucket == future_) future_ = nullptr;
    top.bucket->entries.insert(top.bucket->entries.end(),
                               next.bucket->entries.begin(),
                               next.bucket->entries.end());
    RecycleBucket(next.bucket);
  }
  return top.bucket;
}

bool Simulation::Step(SimTime horizon) {
  for (;;) {
    if (current_ == nullptr || current_->cursor == current_->entries.size()) {
      if (current_ != nullptr) {
        RecycleBucket(current_);
        current_ = nullptr;
      }
      if (heap_.empty()) return false;
      if (heap_.front().time > horizon) return false;
      current_ = PopEarliestBucket();
    }
    if (current_->time > horizon) return false;
    const Entry e = current_->entries[current_->cursor++];
    if (e.gen != 0) {
      const EventSlot& s = slots_[static_cast<uint32_t>(e.bits)];
      if (s.gen != e.gen || !s.pending) continue;  // cancelled: discard
    }
    if (audit_ != nullptr) audit_->OnEventDispatched(current_->time, now_);
    now_ = current_->time;
    ++events_dispatched_;
    --live_events_;
    if (e.gen == 0) {
      // Direct resume: the entry holds the coroutine handle, no slab slot.
      const auto h = std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(e.bits));
      if (tracer_) tracer_(now_, 0, true);
      h.resume();
      return true;
    }
    const uint32_t slot = static_cast<uint32_t>(e.bits);
    EventSlot& s = slots_[slot];
    if (s.handle) {
      const std::coroutine_handle<> h = s.handle;
      if (tracer_) tracer_(now_, MakeId(e.gen, slot), true);
      FreeSlot(slot);
      h.resume();
    } else {
      // Move the callback out before freeing: invoking it may schedule new
      // events, which can reuse (or reallocate) this slot.
      detail::SmallFn fn = std::move(s.fn);
      if (tracer_) tracer_(now_, MakeId(e.gen, slot), false);
      FreeSlot(slot);
      fn.Invoke();
    }
    return true;
  }
}

void Simulation::Run() {
  while (!stop_requested_) {
    if (!Step(std::numeric_limits<double>::infinity())) break;
  }
}

void Simulation::RunUntil(SimTime t) {
  while (!stop_requested_) {
    if (!Step(t)) break;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
}

}  // namespace declust::sim
