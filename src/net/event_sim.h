// Minimal discrete-event scheduler with a simulated clock.
//
// The synchronous SimulatedNetwork charges latency as a running sum, which
// models a single sequential walker. For concurrent activity — parallel
// walkers, overlapping local scans, replies in flight while the walk
// continues — the event queue executes callbacks in simulated-time order so
// the *makespan* falls out naturally. Used by core::AsyncQuerySession and
// core::QueryScheduler.
//
// The event core is allocation-free on the steady state and sized for deep
// pending sets:
//
//  * Callbacks live in one slab of reusable slots (a freed slot is recycled
//    before the slab grows), so the ordering structures below move 16-byte
//    POD handles instead of closures. A slot stores its closure inline
//    (net/inline_callback.h): steady-state scheduling performs no heap
//    allocation at all.
//  * Ordering is two-tier, LSM-style: fresh events enter a small 4-ary
//    min-heap; when the heap outgrows a cache-resident threshold it is
//    sorted and merged into a descending-sorted far array popped from the
//    back. Pop compares heap-min against sorted-back, so the earliest
//    pending event is always O(1)-visible and a million-deep backlog costs
//    sequential merges instead of a pointer-chasing sift per pop.
//  * Homogeneous hot events can skip the closure entirely: ScheduleStep
//    stores just a (StepHandler*, uint32_t) pair, and RunOne gathers every
//    simultaneous pending step bound for the same handler into one
//    RunSteps(args, n) call — the batched walker-step kernel iterates SoA
//    walker state instead of re-entering the dispatch loop per walker.
//
// The core is serial: one query's drain is a single causal chain, so the
// queue takes no worker threads and P2PAQP_THREADS never reaches it. Pop
// order depends only on the strict (time, sequence) total order — never on
// flush timing — so execution is bit-identical for any P2PAQP_THREADS
// setting and simultaneous events run FIFO. Step batching preserves this
// exactly: a batch is the maximal run of consecutive pops with equal time
// and equal handler, args are delivered in pop order, and anything a step
// schedules carries a later sequence than every member of its batch — so
// RunSteps(args, n) is observationally identical to n sequential RunOne
// calls. See docs/PERFORMANCE.md for the two-tier and batching design and
// its measurements.
#ifndef P2PAQP_NET_EVENT_SIM_H_
#define P2PAQP_NET_EVENT_SIM_H_

#include <cstdint>
#include <vector>

#include "net/inline_callback.h"
#include "util/logging.h"

namespace p2paqp::net {

// Receiver for batched homogeneous events (see ScheduleStep). One handler
// instance represents one kind of hot event — e.g. "advance walker #arg" —
// and RunSteps is handed every simultaneous pending arg in schedule order.
class StepHandler {
 public:
  virtual ~StepHandler() = default;

  // Processes `n` simultaneous events in order. `args` is only valid for
  // the duration of the call. Steps may schedule further events (including
  // more steps); those run after this batch.
  virtual void RunSteps(const uint32_t* args, size_t n) = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  // Always 1: the core is one serial partition. Kept only because the
  // benchmark driver (perfbench/src/main.cc) records it in every report's
  // configuration and that driver is frozen against the recorded results.
  static size_t ResolvedShards() { return 1; }

  double now() const { return now_; }
  size_t pending() const { return heap_.size() + sorted_.size(); }
  uint64_t executed() const { return executed_; }

  // Schedules `callback` at absolute simulated time `at` (>= now).
  void ScheduleAt(double at, Callback callback);

  // Schedules `callback` `delay` ms from the current simulated time.
  void ScheduleAfter(double delay, Callback callback) {
    P2PAQP_CHECK_GE(delay, 0.0);
    ScheduleAt(now_ + delay, std::move(callback));
  }

  // Schedules a typed step event: at time `at`, `handler->RunSteps` receives
  // `arg` — batched together with every other simultaneous step bound for
  // the same handler. `handler` must outlive the event.
  void ScheduleStepAt(double at, StepHandler* handler, uint32_t arg);

  void ScheduleStepAfter(double delay, StepHandler* handler, uint32_t arg) {
    P2PAQP_CHECK_GE(delay, 0.0);
    ScheduleStepAt(now_ + delay, handler, arg);
  }

  // Pops and executes the earliest event — or, for a step event, the
  // maximal batch of simultaneous same-handler steps. Returns false when
  // idle.
  bool RunOne();

  // Drains the queue (events may schedule more events); returns the final
  // simulated time. `max_events` guards against runaway cascades.
  double RunUntilEmpty(uint64_t max_events = 100000000);

  // Pre-sizes the slab and ordering tiers for `events` simultaneous
  // pending events so not even the warm-up allocates.
  void Reserve(size_t events);

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  // The handle key packs (sequence << 24) | slot: the low bits address the
  // callback slab (16M simultaneous events), the high bits are the FIFO
  // tie-break for simultaneous events (2^40 scheduled events per queue).
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  // Near-heap size at which the heap is merged into the sorted far array.
  // 64k 16-byte handles = 1 MiB: L2-resident, so near-term sifts stay
  // cheap.
  static constexpr size_t kFlushThreshold = size_t{1} << 16;

  // Small heap handle: ordering key only, the callback stays in its slab
  // slot. Strictly totally ordered (sequences are unique).
  struct Handle {
    double at;
    uint64_t key;
  };

  // Slab slot: a reusable callback — or, for step events, a
  // (handler, arg) pair with no closure at all — plus the free-list link.
  struct Slot {
    Callback callback;
    StepHandler* handler = nullptr;
    uint32_t arg = 0;
    uint32_t next_free = kNoSlot;
  };

  static bool Earlier(const Handle& a, const Handle& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }
  // Descending order for the far array (earliest at the back).
  static bool Later(const Handle& a, const Handle& b) { return Earlier(b, a); }
  static uint32_t SlotOf(const Handle& h) {
    return static_cast<uint32_t>(h.key) & kSlotMask;
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  void Push(double at, uint32_t slot);
  void SiftUp(size_t index);
  void SiftDown(size_t index);
  // Sorts the near heap and merges it into the sorted far array.
  void Flush();
  // Earliest pending event (heap-min vs sorted-back); returns false when
  // idle. `from_heap` reports which tier holds it.
  bool Peek(Handle* out, bool* from_heap) const;
  // Removes the event Peek just returned from its tier.
  void Pop(bool from_heap);

  std::vector<Handle> heap_;     // Near tier: flat 4-ary min-heap.
  std::vector<Handle> sorted_;   // Far tier: sorted descending.
  std::vector<Handle> scratch_;  // Merge buffer, reused across flushes.
  std::vector<Slot> slab_;       // Callback storage, free-list recycled.
  uint32_t free_head_ = kNoSlot;
  std::vector<uint32_t> step_args_;  // Batch gather scratch, reused.
  double now_ = 0.0;
  uint64_t next_sequence_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_EVENT_SIM_H_
