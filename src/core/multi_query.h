// Multi-query throughput layer: K concurrent aggregation queries multiplexed
// over shared sampling work.
//
// The paper pays one full random walk per query, but the Phase-I inclusion
// probabilities prob(p) = deg(p)/2|E| are query-independent: the visited-peer
// set {(peer, deg)} is a reusable *sample frame* (the paper's future-work
// "hybrid solutions that do some amount of pre-computations of samples").
// The scheduler exploits that three ways:
//
//   1. Sample-frame cache. The sink keeps one epoch-stamped pool of
//      stationary selections, reused across queries and batches. Staleness
//      rides the FreshnessCache epoch clock (data-churn ticks): a frame
//      older than `frame_ttl_epochs` is rebuilt; a query whose phase-II plan
//      m' outgrows the pool triggers an incremental top-up walk that only
//      pays for the missing selections.
//   2. Walker batching. The top-up walker token carries all K query bodies
//      behind one shared Gnutella header, so one hop serves K queries
//      (messages-per-query drops ~K x); replies are batched the same way.
//   3. Shared local work. Per-visit local execution is routed through the
//      FreshnessCache, so repeated query signatures across batches answer
//      from cache with zero local I/O.
//
// Every per-query estimate is still the plain (or robust) Horvitz-Thompson
// estimator over stationary selections with the correct weights, so each
// answer stays marginally unbiased (Theorem 1) — verified by the reused-
// frame statistical test. What reuse *does* introduce is correlation
// between the K answers of a batch, the price of amortization (see
// docs/PERFORMANCE.md for the model).
#ifndef P2PAQP_CORE_MULTI_QUERY_H_
#define P2PAQP_CORE_MULTI_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/catalog.h"
#include "core/hybrid.h"
#include "core/two_phase.h"
#include "sampling/random_walk.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2paqp::core {

struct SchedulerParams {
  // Per-query estimation parameters (phase-I size, quorum, retransmits,
  // robustness policy, ...). Shared by every query in a batch.
  EngineParams engine;
  // Walk parameters for frame (re)builds and top-ups; `walk.batch` is
  // overridden per top-up with the live batch width.
  sampling::WalkParams walk;
  // Frames older than this many FreshnessCache epochs are rebuilt from
  // scratch before reuse (the staleness window bounding frame-induced
  // error; 0 = rebuild every epoch tick).
  uint64_t frame_ttl_epochs = 4;
  // Ablation switches. Both true = the full scheduler; batch_walkers=false
  // walks with per-query (unbatched) tokens, reuse_frame=false discards the
  // frame between batches. With both false a K-batch degenerates to K
  // independent two-phase runs sharing nothing but the process.
  bool batch_walkers = true;
  bool reuse_frame = true;
};

// Frame bookkeeping for one ExecuteBatch call plus scheduler lifetime
// counters (the BENCH `frame_hits` telemetry).
struct SampleFrameStats {
  // Selections served from the frame carried over from PREVIOUS batches
  // (selections walked earlier in the same batch are not hits: a cold batch
  // always reports 0, however many phases consume its fresh walk).
  size_t frame_hits = 0;
  // Selections that needed fresh walking (rebuild or top-up).
  size_t frame_misses = 0;
  // Whole-frame rebuilds forced by epoch expiry.
  size_t rebuilds = 0;
  // FreshnessCache epoch the frame was stamped with.
  uint64_t frame_epoch = 0;
};

struct BatchResult {
  // One answer per input query, in input order. A query can fail (quorum
  // not met, sink dead) without failing its batch siblings.
  std::vector<util::Result<ApproximateAnswer>> answers;
  // Cost of the whole batch; the shared walk/reply work is indivisible, so
  // per-query cost is this divided by the batch width (per-query
  // ApproximateAnswer::cost is left zero).
  net::CostSnapshot cost;
  SampleFrameStats frame;
};

// Sink-side scheduler multiplexing batches of COUNT/SUM queries over one
// shared sample frame. Serial and deterministic: results depend only on the
// seeds and the call sequence, never on P2PAQP_THREADS (machine-checked by
// tests/determinism_test.cc).
class QueryScheduler {
 public:
  // `network` and `cache` must outlive the scheduler. `cache` is the shared
  // epoch clock *and* the per-peer local-result cache; it is required (the
  // frame's staleness window is defined by its epochs).
  QueryScheduler(net::SimulatedNetwork* network, const SystemCatalog& catalog,
                 const SchedulerParams& params, FreshnessCache* cache);

  // Executes `queries` as one batch against `sink`: shared phase-I frame,
  // per-query cross-validation sizing, shared phase-II top-up sized by the
  // largest plan, per-query Horvitz-Thompson estimation. Queries must be
  // kCount or kSum (the central estimation path).
  BatchResult ExecuteBatch(const std::vector<query::AggregateQuery>& queries,
                           graph::NodeId sink, util::Rng& rng);

  // Drops the cached frame; the next batch rebuilds from scratch.
  void InvalidateFrame() { frame_.selections.clear(); }

  // Lifetime frame counters (sums over all batches).
  const SampleFrameStats& lifetime_frame_stats() const {
    return lifetime_frame_;
  }
  size_t frame_size() const { return frame_.selections.size(); }

  // Selections carried over from previous batches at the top of the current
  // (or most recent) batch — the ceiling on legitimate frame hits, used by
  // the frame-accounting oracle in verify/protocol/invariants.cc.
  size_t batch_carry() const { return batch_carry_; }

  const SchedulerParams& params() const { return params_; }

 private:
  struct SampleFrame {
    std::vector<sampling::PeerVisit> selections;
    uint64_t epoch = 0;
  };

  // Per-query in-flight state while a batch executes.
  struct QueryState;

  // Expires the frame on epoch-TTL overrun and records the number of
  // carried-over selections; called once at the top of every batch so hit
  // accounting can tell carried selections from ones walked this batch.
  void BeginBatchFrame(SampleFrameStats* stats);

  // Ensures the frame holds >= `needed` selections, topping up with a
  // batch-`batch` walk when short. Records hits (needed selections already
  // present at batch start) and misses (fresh walks) into `stats`.
  util::Status EnsureFrame(size_t needed, graph::NodeId sink, uint32_t batch,
                           util::Rng& rng, SampleFrameStats* stats);

  // Runs frame selections [first, last) for the still-live queries in
  // `states` whose requested range covers the index: per-query local
  // execution through the cache, one batched reply per visit (the shared
  // reply path of core/reply_path.h, minus dedup: the batch models no
  // replays or hedges).
  void CollectRange(std::vector<QueryState>& states, size_t first, size_t last,
                    const PlanContext& ctx, bool phase2, util::Rng& rng);

  net::SimulatedNetwork* network_;
  SystemCatalog catalog_;
  SchedulerParams params_;
  FreshnessCache* cache_;
  double total_weight_;
  SampleFrame frame_;
  // Frame size at the top of the current batch (after expiry): the only
  // selections that count as hits when a phase requests them.
  size_t batch_carry_ = 0;
  SampleFrameStats lifetime_frame_;
};

}  // namespace p2paqp::core

#endif  // P2PAQP_CORE_MULTI_QUERY_H_
