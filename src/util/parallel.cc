#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>

#include "util/logging.h"
#include "util/numa.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace p2paqp::util {

namespace {

thread_local bool tls_in_parallel_worker = false;

}  // namespace

size_t ParallelThreads() {
  const char* env = std::getenv("P2PAQP_THREADS");
  if (env != nullptr) {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

bool PinThreadsEnabled() {
  const char* env = std::getenv("P2PAQP_PIN_THREADS");
  return env != nullptr && std::atol(env) > 0;
}

bool InParallelWorker() { return tls_in_parallel_worker; }

// Shared state for one Run()/RunStatic(): dynamic batches claim indices from
// `next` until it passes `n`; static batches give lane l to one fixed thread.
// Either way completions count in `done` and the lowest-indexed exception is
// recorded under `mu`.
struct ThreadPool::Batch {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  bool is_static = false;
  uint64_t seq = 0;  // Distinguishes batches so a thread runs each once.
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  size_t first_error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;

  void RecordError(size_t index) {
    std::lock_guard<std::mutex> lock(mu);
    if (index < first_error_index) {
      first_error_index = index;
      error = std::current_exception();
    }
  }

  // Claims and runs tasks until the index space is exhausted. A throwing
  // task still counts as done — remaining tasks keep running, and the
  // lowest-indexed exception wins, so error reporting is as deterministic
  // as the results.
  void Drain() {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        RecordError(i);
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  // Static mode: runs exactly `lane`, the caller's fixed assignment. A
  // throwing lane abandons its own remaining work but every other lane
  // still runs; the lowest-indexed throwing lane wins.
  void DrainLane(size_t lane) {
    if (lane >= n) return;
    try {
      (*fn)(lane);
    } catch (...) {
      RecordError(lane);
    }
    done.fetch_add(1, std::memory_order_acq_rel);
  }

  bool AllDone() const {
    return done.load(std::memory_order_acquire) == n;
  }
};

ThreadPool::ThreadPool(size_t num_threads, bool pin) {
  P2PAQP_CHECK_GT(num_threads, 0u);
  // On multi-socket hosts pinning engages automatically (P2PAQP_NUMA=0
  // opts out): without it the kernel migrates workers across nodes and the
  // first-touch placement of PeerStore blocks and prefaulted CSR pages is
  // wasted. Single-node hosts keep pinning opt-in via `pin`.
  pin = pin || NumaPlacementEnabled();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
#ifdef __linux__
    if (pin) {
      // Worker i hosts static lane i+1; lane 0 stays on the (unpinned)
      // caller. One core per lane keeps a lane's PeerStore blocks and
      // arenas resident in that core's cache across regions; the topology
      // maps contiguous lane groups onto NUMA nodes (a single-node
      // topology degenerates to lane % ncpu, the pre-NUMA behavior).
      const NumaTopology& topo = NumaTopology::Effective();
      if (topo.num_cpus() > 1) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(topo.CpuOfLane(i + 1, num_threads + 1), &set);
        pthread_setaffinity_np(workers_.back().native_handle(), sizeof(set),
                               &set);
      }
    }
#else
    (void)pin;
#endif
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_in_parallel_worker = true;
  uint64_t last_seq = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && batch_->seq != last_seq);
      });
      if (batch_ == nullptr || batch_->seq == last_seq) {
        return;  // stop_ and nothing new to drain.
      }
      batch = batch_;
      last_seq = batch->seq;
      ++active_workers_;
    }
    if (batch->is_static) {
      batch->DrainLane(worker_index + 1);
    } else {
      batch->Drain();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Dynamic drains only return once the index space is exhausted; a
      // static batch is finished when every lane has reported done. Either
      // way, stop handing the batch to late-waking threads.
      if (batch_ == batch && (!batch->is_static || batch->AllDone())) {
        batch_ = nullptr;
      }
      --active_workers_;
    }
    idle_cv_.notify_all();
  }
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    P2PAQP_CHECK(batch_ == nullptr) << "concurrent ThreadPool::Run calls";
    batch.seq = ++next_batch_seq_;
    batch_ = &batch;
  }
  work_cv_.notify_all();
  // The caller drains alongside the workers, so a pool of T threads gives a
  // parallel region T+1 lanes and small batches finish without a context
  // switch.
  batch.Drain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (batch_ == &batch) batch_ = nullptr;
    // Wait until every claimed task has finished AND no worker still holds
    // a pointer to the (stack-allocated) batch.
    idle_cv_.wait(lock, [&] {
      return active_workers_ == 0 && batch.AllDone();
    });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::RunStatic(size_t lanes,
                           const std::function<void(size_t)>& fn) {
  if (lanes == 0) return;
  P2PAQP_CHECK_LE(lanes, workers_.size() + 1)
      << "static lanes exceed pool width";
  Batch batch;
  batch.n = lanes;
  batch.fn = &fn;
  batch.is_static = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    P2PAQP_CHECK(batch_ == nullptr) << "concurrent ThreadPool::Run calls";
    batch.seq = ++next_batch_seq_;
    batch_ = &batch;
  }
  work_cv_.notify_all();
  batch.DrainLane(0);  // The caller is lane 0.
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] {
      return active_workers_ == 0 && batch.AllDone();
    });
    if (batch_ == &batch) batch_ = nullptr;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::RunStaticRanges(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t lanes = workers_.size() + 1;
  RunStatic(lanes, [&fn, n, lanes](size_t lane) {
    // Contiguous per-lane ranges: lane l always owns the same indices for a
    // given (n, lanes), running on the same (optionally pinned) thread
    // every region — the one place this formula lives.
    fn(lane, lane * n / lanes, (lane + 1) * n / lanes);
  });
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 const ParallelOptions& options) {
  size_t threads = options.threads != 0 ? options.threads : ParallelThreads();
  if (threads > n) threads = n;
  if (threads <= 1 || InParallelWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller participates in the drain, so spawn one fewer worker than
  // the requested concurrency.
  ThreadPool pool(threads - 1, PinThreadsEnabled());
  if (options.partition == Partition::kStatic) {
    pool.RunStaticRanges(n, [&fn](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  } else {
    pool.Run(n, fn);
  }
}

Rng TaskRng(uint64_t base_seed, size_t index) {
  return Rng(MixSeed(
      base_seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(index) + 1))));
}

}  // namespace p2paqp::util
