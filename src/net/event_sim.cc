#include "net/event_sim.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace p2paqp::net {

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNoSlot;
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(slab_.size());
  P2PAQP_CHECK_LT(slot, kSlotMask) << "event slab exhausted";
  slab_.emplace_back();
  return slot;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  // Drop the callback's captures immediately; the slot goes to the head of
  // the free list so the hot loop reuses the same few slots.
  slab_[slot].callback = nullptr;
  slab_[slot].handler = nullptr;
  slab_[slot].next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::SiftUp(size_t index) {
  Handle moving = heap_[index];
  while (index > 0) {
    size_t parent = (index - 1) / 4;
    if (!Earlier(moving, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = moving;
}

void EventQueue::SiftDown(size_t index) {
  const size_t size = heap_.size();
  Handle moving = heap_[index];
  for (;;) {
    size_t first_child = index * 4 + 1;
    if (first_child >= size) break;
    size_t last_child = first_child + 4 < size ? first_child + 4 : size;
    size_t best = first_child;
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (Earlier(heap_[child], heap_[best])) best = child;
    }
    if (!Earlier(heap_[best], moving)) break;
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = moving;
}

void EventQueue::Flush() {
  // Both inputs are strictly totally ordered (unique sequences), so the
  // merged order — and therefore every later pop — is independent of when
  // flushes happen.
  std::sort(heap_.begin(), heap_.end(), Later);
  scratch_.clear();
  scratch_.reserve(sorted_.size() + heap_.size());
  std::merge(sorted_.begin(), sorted_.end(), heap_.begin(), heap_.end(),
             std::back_inserter(scratch_), Later);
  sorted_.swap(scratch_);
  heap_.clear();
}

bool EventQueue::Peek(Handle* out, bool* from_heap) const {
  if (sorted_.empty()) {
    if (heap_.empty()) return false;
    *out = heap_[0];
    *from_heap = true;
    return true;
  }
  *from_heap = !heap_.empty() && Earlier(heap_[0], sorted_.back());
  *out = *from_heap ? heap_[0] : sorted_.back();
  return true;
}

void EventQueue::Pop(bool from_heap) {
  if (!from_heap) {
    sorted_.pop_back();
    return;
  }
  Handle last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    SiftDown(0);
  }
}

void EventQueue::Push(double at, uint32_t slot) {
  heap_.push_back(Handle{at, (next_sequence_++ << kSlotBits) | slot});
  SiftUp(heap_.size() - 1);
  if (heap_.size() >= kFlushThreshold) Flush();
}

void EventQueue::ScheduleAt(double at, Callback callback) {
  P2PAQP_CHECK_GE(at, now_) << "cannot schedule in the past";
  P2PAQP_CHECK_LT(next_sequence_, uint64_t{1} << (64 - kSlotBits))
      << "event sequence space exhausted";
  uint32_t slot = AcquireSlot();
  slab_[slot].callback = std::move(callback);
  Push(at, slot);
}

void EventQueue::ScheduleStepAt(double at, StepHandler* handler,
                                uint32_t arg) {
  P2PAQP_CHECK_GE(at, now_) << "cannot schedule in the past";
  P2PAQP_CHECK_LT(next_sequence_, uint64_t{1} << (64 - kSlotBits))
      << "event sequence space exhausted";
  P2PAQP_CHECK(handler != nullptr);
  uint32_t slot = AcquireSlot();
  slab_[slot].handler = handler;
  slab_[slot].arg = arg;
  Push(at, slot);
}

bool EventQueue::RunOne() {
  Handle top;
  bool from_heap;
  if (!Peek(&top, &from_heap)) return false;
  Pop(from_heap);
  now_ = top.at;
  ++executed_;
  // Pull the NEXT pop candidates' slots toward the cache while this
  // callback runs; pop order is unrelated to slab order, so these accesses
  // miss otherwise.
  if (!sorted_.empty()) __builtin_prefetch(&slab_[SlotOf(sorted_.back())]);
  if (!heap_.empty()) __builtin_prefetch(&slab_[SlotOf(heap_[0])]);
  uint32_t slot = SlotOf(top);
  if (slab_[slot].handler != nullptr) {
    // Typed step: gather the maximal run of simultaneous pops bound for the
    // same handler into one batch. Pops come off in exact (time, sequence)
    // order and anything RunSteps schedules gets a later sequence than every
    // gathered member, so the batch is indistinguishable from running its
    // members one at a time — the determinism digests do not move.
    StepHandler* handler = slab_[slot].handler;
    step_args_.clear();
    step_args_.push_back(slab_[slot].arg);
    ReleaseSlot(slot);
    Handle next;
    bool next_from_heap;
    while (Peek(&next, &next_from_heap) && next.at == top.at) {
      uint32_t next_slot = SlotOf(next);
      if (slab_[next_slot].handler != handler) break;
      Pop(next_from_heap);
      ++executed_;
      step_args_.push_back(slab_[next_slot].arg);
      ReleaseSlot(next_slot);
    }
    handler->RunSteps(step_args_.data(), step_args_.size());
    return true;
  }
  // The callback is moved out before the slot is released, so it may safely
  // schedule new events (which can reuse the freed slot) while running.
  Callback callback = std::move(slab_[slot].callback);
  ReleaseSlot(slot);
  callback();
  return true;
}

double EventQueue::RunUntilEmpty(uint64_t max_events) {
  uint64_t budget = max_events;
  while (RunOne()) {
    P2PAQP_CHECK_GT(budget--, 0u) << "event cascade exceeded budget";
  }
  return now_;
}

void EventQueue::Reserve(size_t events) {
  const size_t slots = events + 1;
  slab_.reserve(slots);
  sorted_.reserve(slots);
  scratch_.reserve(slots);
  heap_.reserve(std::min(slots, kFlushThreshold));
  if (step_args_.capacity() < events) step_args_.reserve(events);
}

}  // namespace p2paqp::net
