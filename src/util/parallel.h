// Deterministic multi-core execution for replicate loops and sweeps.
//
// The contract: ParallelFor/ParallelMap produce results that are
// bit-identical for ANY thread count, including 1. This works because
//   (a) every task derives all of its randomness from its own index (use
//       TaskRng or an explicitly index-keyed seed), never from shared state,
//   (b) results land in a preallocated slot vector indexed by task, and
//   (c) reductions run serially over the slots in index order on the caller.
// Parallelism then only changes *when* a task runs, never what it computes
// or where its result goes.
//
// The pool is deliberately work-stealing-free: workers claim indices from a
// single atomic counter, so scheduling is trivial to reason about and there
// is no per-task queue shuffling to introduce timing-dependent allocation
// patterns. Pools are ephemeral — one per parallel region — which keeps
// shutdown semantics obvious (the region's destructor joins everything) and
// costs microseconds against replicate tasks that each build worlds and run
// whole queries.
//
// Thread count comes from the P2PAQP_THREADS environment knob (unset or 0 =
// std::thread::hardware_concurrency). P2PAQP_THREADS=1 preserves today's
// exact single-threaded execution path: the loop runs inline on the caller,
// no pool is created. Nested parallel regions (a ParallelFor issued from
// inside a pool worker) also run inline, so sweeps-over-replicates cannot
// deadlock or oversubscribe.
#ifndef P2PAQP_UTIL_PARALLEL_H_
#define P2PAQP_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace p2paqp::util {

// Resolved thread-count knob: P2PAQP_THREADS if set and > 0, else
// std::thread::hardware_concurrency() (minimum 1). Read per call, so tests
// can flip the environment between runs.
size_t ParallelThreads();

// True while executing inside a ThreadPool worker (thread_local); nested
// parallel regions consult this to run inline.
bool InParallelWorker();

// Fixed-size, work-stealing-free thread pool. Workers block on a condition
// variable until Run() publishes a batch, then claim indices from an atomic
// counter until the batch is exhausted. The destructor joins all workers.
//
// With `pin` (or the P2PAQP_PIN_THREADS env knob) each worker is pinned to
// one CPU at spawn: lane l of a static-partition region then always executes
// on the same core, so the PeerStore blocks and CSR pages a lane touches
// stay in that core's cache. On multi-socket hosts pinning engages
// automatically (unless P2PAQP_NUMA=0) and routes through
// util::NumaTopology: lanes split into contiguous per-node groups, so the
// pages a lane first-touches are allocated on the node that will keep
// scanning them. Pinning never changes results — only placement.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, bool pin = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Executes fn(i) for every i in [0, n), blocking until all tasks finish.
  // If tasks throw, every remaining task still runs, and the exception from
  // the lowest-indexed throwing task is rethrown on the caller — so error
  // reporting is as deterministic as the results themselves.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  // Static-lane variant: exactly `lanes` tasks, and lane l > 0 runs on
  // worker l-1 (lane 0 runs on the caller) — no atomic claiming, so the
  // lane -> thread mapping is identical on every call. The block-affine
  // partition for PeerStore block scans: lane l always touches the same
  // contiguous blocks with the same (possibly pinned) worker.
  void RunStatic(size_t lanes, const std::function<void(size_t)>& fn);

  // Static-partition range loop: splits [0, n) into num_threads() + 1
  // contiguous lane ranges — lane l owns [l*n/L, (l+1)*n/L) — and invokes
  // fn(lane, begin, end) with RunStatic's fixed lane -> thread map. The
  // range derivation lives here, in the pool, so every static call site
  // shares one partition formula instead of re-deriving bounds inside its
  // lambda (and a region body needs no per-index division, which keeps the
  // steady-state allocation/arithmetic profile of hot block loops flat).
  // Lanes whose range is empty are still invoked with begin == end.
  void RunStaticRanges(
      size_t n, const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  struct Batch;
  void WorkerLoop(size_t worker_index);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait here for a batch / stop.
  std::condition_variable idle_cv_;  // Run() waits here for batch completion.
  Batch* batch_ = nullptr;           // Current batch, guarded by mu_.
  size_t active_workers_ = 0;        // Workers inside Drain(), guarded by mu_.
  uint64_t next_batch_seq_ = 0;      // Batch identity, guarded by mu_.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// How a parallel region maps indices onto lanes.
enum class Partition {
  // Workers claim indices dynamically from a shared counter (default;
  // best for irregular task costs).
  kDynamic = 0,
  // Lane l of L owns the contiguous range [l*n/L, (l+1)*n/L) and lanes map
  // to fixed threads, so the index -> thread assignment is stable across
  // every region with the same (n, L). Used for PeerStore block loops: the
  // blocks a lane initializes are the blocks it later scans, keeping each
  // block's pages hot in one core's cache instead of strided across all of
  // them.
  kStatic,
};

struct ParallelOptions {
  // Explicit thread count; 0 defers to ParallelThreads() (the env knob).
  size_t threads = 0;
  Partition partition = Partition::kDynamic;
};

// True when the P2PAQP_PIN_THREADS env knob requests CPU-pinned workers.
bool PinThreadsEnabled();

// Order-independent parallel loop: fn(i) for i in [0, n). Runs inline, in
// index order, when the resolved thread count is 1, n < 2, or the caller is
// itself a pool worker. fn must not touch shared mutable state (see file
// comment); exceptions propagate with lowest-index-wins selection.
// Partition::kStatic only changes which thread runs which index — results
// are bit-identical either way, per the contract above.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 const ParallelOptions& options = {});

// Slot-vector map: out[i] = fn(i), deterministic for any thread count. The
// result type must be default-constructible (slots are preallocated).
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, const ParallelOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using T = std::invoke_result_t<Fn&, size_t>;
  std::vector<T> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, options);
  return out;
}

// Independent RNG stream for task `index`: the base seed is folded with a
// golden-ratio stride and MixSeed so neighboring indices decorrelate. The
// same (base_seed, index) pair always yields the same stream, on any thread.
Rng TaskRng(uint64_t base_seed, size_t index);

}  // namespace p2paqp::util

#endif  // P2PAQP_UTIL_PARALLEL_H_
