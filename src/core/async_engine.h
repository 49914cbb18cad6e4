// Event-driven execution of the two-phase plan (makespan-accurate latency).
//
// The synchronous TwoPhaseEngine models one walker whose hops, local scans
// and replies happen back-to-back, so its latency ledger is a straight sum.
// In a real deployment the activity overlaps: W walkers advance in parallel,
// a selected peer scans its table while the walker already moved on, and the
// (y(p), deg(p)) replies race back to the sink over direct IP. The
// AsyncQuerySession runs the same statistical plan (RunTwoPhasePlan, with
// the same sampler semantics) on a discrete-event clock, so the reported
// makespan is the true end-to-end latency the paper's cost model cares
// about (Sec. 3.2).
#ifndef P2PAQP_CORE_ASYNC_ENGINE_H_
#define P2PAQP_CORE_ASYNC_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/reply_path.h"
#include "core/two_phase.h"
#include "net/arena.h"
#include "net/churn.h"
#include "net/event_sim.h"
#include "query/local_executor.h"
#include "sampling/walker_kernel.h"

namespace p2paqp::core {

struct AsyncParams {
  EngineParams engine;
  // Concurrent walkers per phase.
  size_t walkers = 4;
  // Walk mechanics (jump/burn-in); variant must be kSimple.
  sampling::WalkParams walk;
  // Mid-query churn (crash-while-walking, crash-after-sampling-before-
  // reply): when `churn` is set, it steps one epoch every
  // `churn_interval_ms` of *simulated* time while the phase has in-flight
  // work, so peers depart during the query itself. Not owned.
  net::ChurnModel* churn = nullptr;
  double churn_interval_ms = 0.0;
};

struct AsyncQueryReport {
  ApproximateAnswer answer;
  // True end-to-end simulated time from query issue to the arrival of the
  // last phase-II reply at the sink.
  double makespan_ms = 0.0;
  // Phase boundaries (when the last reply of each phase arrived).
  double phase1_done_ms = 0.0;
  uint64_t events = 0;
  // Heap allocations made on the calling thread while the two phases' event
  // loops drained — the steady-state send/deliver/timeout path. 0 on a warm
  // session in fault-free runs; bench/scale_world.cc divides by `events` for
  // the gated steady_state_allocs_per_event metric.
  uint64_t drain_allocs = 0;
};

// Hot-path working storage owned by a session and reused across phases and
// queries. Capacities plateau after the first query (reply arena at the
// peak in-flight reply count, scratches at the sub-sample budget and the
// maximum live degree), which is what makes the drain windows measured by
// AsyncQueryReport::drain_allocs allocation-free once warm.
struct AsyncHotBuffers {
  // In-flight reply payloads: one recycled slot per reply copy racing to
  // the sink, released when the copy arrives (accepted or deduped).
  net::SlotArena<PeerObservation> reply_arena;
  // Per-selection local-scan scratch (sampled indices, measures, sampler
  // marks).
  query::LocalExecScratch exec;
  // Per-hop net::SimulatedNetwork::ForwardingSet scratch shared by all
  // walkers (steps are serial on the event clock); filled only while an
  // adversary plan is installed.
  std::vector<graph::NodeId> neighbors;
  // Sink-side reply dedup of the current phase (core/reply_path.h), opened
  // per phase before the drain so arrivals never grow it.
  ReplyDedup dedup;
  // Walker tokens, indexed by the step events' walker argument. The
  // batched step kernel prefetches the *next* walkers' adjacency while the
  // current one hops (graph::Graph::PrefetchOffset/PrefetchNeighbors).
  std::vector<sampling::WalkerState> walkers;
  // Per-peer EWMA latency/failure scoreboard feeding the circuit breaker
  // (straggler policy). Reset per query *before* the drain (flat arrays, so
  // Record()/Tripped() are allocation-free inside the event loop).
  net::PeerHealthBoard health;
};

class AsyncQuerySession {
 public:
  AsyncQuerySession(net::SimulatedNetwork* network,
                    const SystemCatalog& catalog, const AsyncParams& params);

  // Runs the full adaptive two-phase COUNT/SUM plan event-driven.
  // (Median/distinct/histogram stay on the synchronous engine.)
  util::Result<AsyncQueryReport> Execute(const query::AggregateQuery& query,
                                         graph::NodeId sink, util::Rng& rng);

  // Recycling telemetry of the reply-payload arena (tests assert live() == 0
  // and acquired() == released() once a query drains, even when churn kills
  // peers with replies in flight).
  const net::ArenaStats& reply_arena_stats() const {
    return buffers_.reply_arena.stats();
  }

 private:
  // Runs one phase: `count` selections spread over the walkers; returns the
  // collected observations and completes when the last reply arrives. This
  // is the collection round RunTwoPhasePlan drives, over the shared reply
  // path (core/reply_path.h); each walker hop is one
  // sampling::WalkerKernel transition. Allocations made while the event
  // loop drains are added to `*drain_allocs`.
  //
  // `deadline_ms` is the query deadline budget REMAINING at phase start
  // (+inf = none): walker steps at or past it stop scheduling work, replies
  // arriving strictly after it are discarded as lost, and the quorum
  // hard-fail is waived so the plan can return a deadline-degraded anytime
  // answer.
  //
  // `stats->elapsed_ms` receives the phase's wall clock: from phase start to
  // the last arrival the sink *needed* (or exactly the remaining deadline
  // when it fired). The event queue drains further — losing hedge copies
  // and deduped replays resolve after the answer is ready so the ledger and
  // the reply arena balance — but that drain is bookkeeping, not waiting,
  // and never counts toward latency.
  util::Result<std::vector<PeerObservation>> RunPhase(
      net::EventQueue& events, const query::AggregateQuery& query,
      graph::NodeId sink, size_t count, util::Rng& rng,
      TwoPhaseEngine::CollectionStats* stats, uint64_t* drain_allocs,
      double deadline_ms);

  net::SimulatedNetwork* network_;
  SystemCatalog catalog_;
  AsyncParams params_;
  AsyncHotBuffers buffers_;
};

}  // namespace p2paqp::core

#endif  // P2PAQP_CORE_ASYNC_ENGINE_H_
