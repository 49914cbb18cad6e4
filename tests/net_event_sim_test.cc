// Edge-case tests for the two-tier event core: FIFO ordering of
// simultaneous events, reentrant scheduling from callbacks, the
// executed()/pending() counters, and ordering across the near-heap ->
// sorted-far flush boundary.
#include <gtest/gtest.h>

#include <vector>

#include "net/event_sim.h"
#include "util/rng.h"

namespace p2paqp::net {
namespace {

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30.0, [&order] { order.push_back(3); });
  queue.ScheduleAt(10.0, [&order] { order.push_back(1); });
  queue.ScheduleAt(20.0, [&order] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(queue.RunUntilEmpty(), 30.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimestampRunsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    queue.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  queue.RunUntilEmpty();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CallbackMaySchedule) {
  // An event scheduling follow-ups mid-RunOne must interleave correctly
  // with already-pending events, including one at the exact current time
  // (which runs after, FIFO) and one between two pending events.
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(10.0, [&] {
    order.push_back(1);
    queue.ScheduleAt(10.0, [&order] { order.push_back(2); });
    queue.ScheduleAt(15.0, [&order] { order.push_back(3); });
  });
  queue.ScheduleAt(20.0, [&order] { order.push_back(4); });
  EXPECT_DOUBLE_EQ(queue.RunUntilEmpty(), 20.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, RunOneAdvancesCountersAndClock) {
  EventQueue queue;
  queue.ScheduleAt(1.0, [] {});
  queue.ScheduleAfter(5.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.executed(), 0u);
  EXPECT_TRUE(queue.RunOne());
  EXPECT_DOUBLE_EQ(queue.now(), 1.0);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.executed(), 1u);
  EXPECT_TRUE(queue.RunOne());
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.executed(), 2u);
  EXPECT_FALSE(queue.RunOne());
  EXPECT_EQ(queue.executed(), 2u);  // An idle RunOne executes nothing.
}

TEST(EventQueueTest, ChainedEventsCountEachExecution) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) queue.ScheduleAfter(1.0, chain);
  };
  queue.ScheduleAt(0.0, chain);
  EXPECT_DOUBLE_EQ(queue.RunUntilEmpty(), 4.0);
  EXPECT_EQ(queue.executed(), 5u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, ReserveDoesNotDisturbSemantics) {
  EventQueue queue;
  queue.Reserve(1000);
  std::vector<int> order;
  queue.ScheduleAt(2.0, [&order] { order.push_back(2); });
  queue.ScheduleAt(1.0, [&order] { order.push_back(1); });
  EXPECT_EQ(queue.pending(), 2u);
  queue.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A backlog deeper than the internal flush threshold (64k) exercises the
// near-heap -> sorted-far merge path; the global pop order must still be
// exactly (time, FIFO) regardless of which tier each event sits in.
TEST(EventQueueTest, DeepBacklogKeepsGlobalOrderAcrossFlushes) {
  EventQueue queue;
  constexpr int kEvents = 100000;  // > 64k flush threshold.
  util::Rng rng(99);
  std::vector<double> popped;
  popped.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Coarse times force plenty of FIFO ties on top of the ordering.
    double at = static_cast<double>(rng.UniformInt(0, 999));
    queue.ScheduleAt(at, [&popped, &queue] { popped.push_back(queue.now()); });
  }
  EXPECT_EQ(queue.pending(), static_cast<size_t>(kEvents));
  queue.RunUntilEmpty();
  ASSERT_EQ(popped.size(), static_cast<size_t>(kEvents));
  for (int i = 1; i < kEvents; ++i) {
    ASSERT_LE(popped[i - 1], popped[i]) << "out of order at " << i;
  }
  EXPECT_EQ(queue.executed(), static_cast<uint64_t>(kEvents));
}

// Ties that straddle the flush boundary still run FIFO: events scheduled
// before and after a flush at the same timestamp must run in schedule order.
TEST(EventQueueTest, FifoTiesSurviveFlushBoundary) {
  EventQueue queue;
  constexpr int kFiller = 70000;  // Forces at least one flush.
  std::vector<int> order;
  queue.ScheduleAt(1.0, [&order] { order.push_back(0); });
  for (int i = 0; i < kFiller; ++i) queue.ScheduleAt(2.0, [] {});
  queue.ScheduleAt(1.0, [&order] { order.push_back(1); });
  queue.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(queue.executed(), static_cast<uint64_t>(kFiller + 2));
}

// Pop order is exactly the (time, schedule order) total order, under
// reentrant scheduling and across the near-heap -> sorted-far flush: every
// event carries its time and a test-side schedule counter, and the
// executed trace must be strictly increasing in that pair and complete.
// The roots alone fill the 64k near heap twice, so the second flush merges
// into a non-empty far tier, and children scheduled mid-drain — some at the
// current time, tying with flushed roots — have to interleave FIFO with
// events already merged into the far tier.
TEST(EventQueueTest, PopOrderIsTheTimeSequenceTotalOrder) {
  struct Stamp {
    double at;
    uint64_t id;
  };
  struct Workload {
    EventQueue queue;
    util::Rng rng{0x5EED};
    std::vector<Stamp> trace;
    uint64_t scheduled = 0;

    void Schedule(double at, int depth) {
      uint64_t id = scheduled++;
      queue.ScheduleAt(at, [this, at, id, depth] { Run(at, id, depth); });
    }
    void Run(double at, uint64_t id, int depth) {
      EXPECT_EQ(queue.now(), at);
      trace.push_back(Stamp{at, id});
      int children = depth > 0 ? static_cast<int>(rng.UniformInt(0, 2)) : 0;
      for (int c = 0; c < children; ++c) {
        // Delay 0 ties with pending events at the current time.
        Schedule(at + static_cast<double>(rng.UniformInt(0, 9)), depth - 1);
      }
    }
  };
  Workload w;
  constexpr int kRoots = 140000;  // > 2x the 64k flush threshold.
  for (int i = 0; i < kRoots; ++i) {
    // Coarse times force plenty of FIFO ties.
    w.Schedule(static_cast<double>(w.rng.UniformInt(0, 99)), 2);
  }
  EXPECT_EQ(w.queue.pending(), static_cast<size_t>(kRoots));
  w.queue.RunUntilEmpty();

  ASSERT_GT(w.scheduled, static_cast<uint64_t>(kRoots));
  ASSERT_EQ(w.trace.size(), w.scheduled);
  EXPECT_EQ(w.queue.executed(), w.scheduled);
  // Strictly increasing pairs are distinct, so with as many entries as
  // schedules every event ran exactly once.
  for (size_t i = 1; i < w.trace.size(); ++i) {
    const Stamp& prev = w.trace[i - 1];
    const Stamp& cur = w.trace[i];
    ASSERT_TRUE(prev.at < cur.at || (prev.at == cur.at && prev.id < cur.id))
        << "out of order at " << i << ": (" << prev.at << ", " << prev.id
        << ") then (" << cur.at << ", " << cur.id << ")";
  }
}

// Collects every RunSteps call: which args arrived together and in what
// order, so the batching tests can assert both the grouping and the FIFO
// contract.
struct RecordingHandler final : public StepHandler {
  std::vector<std::vector<uint32_t>> batches;
  void RunSteps(const uint32_t* args, size_t n) override {
    batches.emplace_back(args, args + n);
  }
};

TEST(EventQueueStepTest, SimultaneousStepsBatchInScheduleOrder) {
  EventQueue queue;
  RecordingHandler handler;
  for (uint32_t i = 0; i < 5; ++i) queue.ScheduleStepAt(10.0, &handler, i);
  queue.RunUntilEmpty();
  ASSERT_EQ(handler.batches.size(), 1u);
  EXPECT_EQ(handler.batches[0], (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.executed(), 5u);  // Each step counts as one event.
}

TEST(EventQueueStepTest, DistinctTimesDoNotBatch) {
  EventQueue queue;
  RecordingHandler handler;
  queue.ScheduleStepAt(10.0, &handler, 0);
  queue.ScheduleStepAt(20.0, &handler, 1);
  queue.RunUntilEmpty();
  ASSERT_EQ(handler.batches.size(), 2u);
  EXPECT_EQ(handler.batches[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(handler.batches[1], (std::vector<uint32_t>{1}));
}

TEST(EventQueueStepTest, DistinctHandlersSplitASharedTick) {
  // A batch is maximal over CONSECUTIVE pops with the same handler: an
  // interleaved schedule for two handlers at one tick yields one batch per
  // handler run, preserving global FIFO.
  EventQueue queue;
  RecordingHandler a;
  RecordingHandler b;
  queue.ScheduleStepAt(5.0, &a, 0);
  queue.ScheduleStepAt(5.0, &a, 1);
  queue.ScheduleStepAt(5.0, &b, 2);
  queue.ScheduleStepAt(5.0, &a, 3);
  queue.RunUntilEmpty();
  ASSERT_EQ(a.batches.size(), 2u);
  EXPECT_EQ(a.batches[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(a.batches[1], (std::vector<uint32_t>{3}));
  ASSERT_EQ(b.batches.size(), 1u);
  EXPECT_EQ(b.batches[0], (std::vector<uint32_t>{2}));
}

TEST(EventQueueStepTest, CallbackAtSameTickSplitsTheBatch) {
  // A plain callback scheduled between two step runs executes in its FIFO
  // slot — the gather never hops over it.
  EventQueue queue;
  RecordingHandler handler;
  std::vector<int> callback_at;
  queue.ScheduleStepAt(5.0, &handler, 0);
  queue.ScheduleAt(5.0, [&] {
    callback_at.push_back(static_cast<int>(handler.batches.size()));
  });
  queue.ScheduleStepAt(5.0, &handler, 1);
  queue.RunUntilEmpty();
  ASSERT_EQ(handler.batches.size(), 2u);
  EXPECT_EQ(handler.batches[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(handler.batches[1], (std::vector<uint32_t>{1}));
  // The callback saw exactly one batch done: it ran between them.
  EXPECT_EQ(callback_at, (std::vector<int>{1}));
}

TEST(EventQueueStepTest, StepsScheduledInsideABatchRunAfterIt) {
  // Anything a step schedules carries a later sequence than every member of
  // its batch — even at the same timestamp it lands in a later batch.
  EventQueue queue;
  struct Chaining final : public StepHandler {
    EventQueue* queue = nullptr;
    std::vector<std::vector<uint32_t>> batches;
    void RunSteps(const uint32_t* args, size_t n) override {
      batches.emplace_back(args, args + n);
      for (size_t i = 0; i < n; ++i) {
        if (args[i] < 10) {
          queue->ScheduleStepAfter(0.0, this, args[i] + 10);
        }
      }
    }
  };
  Chaining handler;
  handler.queue = &queue;
  queue.ScheduleStepAt(1.0, &handler, 0);
  queue.ScheduleStepAt(1.0, &handler, 1);
  queue.RunUntilEmpty();
  ASSERT_EQ(handler.batches.size(), 2u);
  EXPECT_EQ(handler.batches[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(handler.batches[1], (std::vector<uint32_t>{10, 11}));
}

TEST(EventQueueStepTest, StepsAndCallbacksShareSlabsAcrossReuse) {
  // Steady-state recycling: a bounded pending set of mixed step/callback
  // events keeps slab capacity flat while sequences keep climbing.
  EventQueue queue;
  struct SelfStepper final : public StepHandler {
    EventQueue* queue = nullptr;
    uint64_t steps = 0;
    void RunSteps(const uint32_t* args, size_t n) override {
      for (size_t i = 0; i < n; ++i) {
        steps += 1;
        if (steps + n - i <= 2000) queue->ScheduleStepAfter(1.0, this, args[i]);
      }
    }
  };
  SelfStepper stepper;
  stepper.queue = &queue;
  queue.Reserve(8);
  for (uint32_t w = 0; w < 4; ++w) queue.ScheduleStepAt(0.0, &stepper, w);
  queue.RunUntilEmpty();
  EXPECT_GE(stepper.steps, 1996u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue queue;
  queue.ScheduleAt(10.0, [] {});
  queue.RunUntilEmpty();
  EXPECT_DEATH(queue.ScheduleAt(5.0, [] {}), "cannot schedule in the past");
}

}  // namespace
}  // namespace p2paqp::net
