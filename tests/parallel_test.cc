// Tests for the deterministic parallel execution layer (util/parallel.h):
// pool lifecycle and exception propagation, and the headline contract —
// ParallelMap, bench::RunExperiment and verify::RunReplicates produce
// bit-identical results for any thread count (P2PAQP_THREADS=1/2/8).
#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "harness.h"
#include "verify/verify.h"

namespace p2paqp {
namespace {

// RAII override of P2PAQP_THREADS; restores the previous value on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("P2PAQP_THREADS");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv("P2PAQP_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_old_) {
      ::setenv("P2PAQP_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("P2PAQP_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(ParallelThreadsTest, EnvKnobWins) {
  ScopedThreads guard("3");
  EXPECT_EQ(util::ParallelThreads(), 3u);
}

TEST(ParallelThreadsTest, ZeroFallsBackToHardwareAndGarbageAborts) {
  {
    ScopedThreads guard("0");
    EXPECT_GE(util::ParallelThreads(), 1u);
  }
  {
    // A malformed knob is a configuration error, not a request for the
    // default (util/env.h).
    ScopedThreads guard("banana");
    EXPECT_DEATH(util::ParallelThreads(), "P2PAQP_THREADS=\"banana\"");
  }
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.Run(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.Run(10, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, CleanShutdownWithoutWork) {
  // Destructor must join workers that never saw a batch.
  util::ThreadPool pool(8);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  util::ThreadPool pool(2);
  pool.Run(0, [&](size_t) { FAIL() << "no tasks expected"; });
}

TEST(ParallelForTest, PropagatesLowestIndexException) {
  // Multiple tasks throw; the caller must always see the lowest index's
  // exception so failures are as deterministic as results.
  for (size_t threads : {1u, 2u, 8u}) {
    try {
      util::ParallelFor(
          64,
          [](size_t i) {
            if (i % 7 == 3) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
          },
          {.threads = threads});
      FAIL() << "expected an exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "threads=" << threads;
    }
  }
}

TEST(ParallelForTest, PoolSurvivesThrowingBatch) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.Run(16, [](size_t i) {
        if (i == 5) throw std::runtime_error("bad");
      }),
      std::runtime_error);
  // The pool must still execute a subsequent clean batch.
  std::atomic<int> total{0};
  pool.Run(16, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
}

TEST(TaskRngTest, DeterministicPerIndexAndDecorrelated) {
  util::Rng a0 = util::TaskRng(42, 0);
  util::Rng a0_again = util::TaskRng(42, 0);
  util::Rng a1 = util::TaskRng(42, 1);
  EXPECT_EQ(a0.Next64(), a0_again.Next64());
  EXPECT_NE(util::TaskRng(42, 0).Next64(), a1.Next64());
  EXPECT_NE(util::TaskRng(42, 0).Next64(), util::TaskRng(43, 0).Next64());
}

TEST(ParallelMapTest, BitIdenticalAcrossThreadCounts) {
  auto run = [](size_t threads) {
    return util::ParallelMap(
        50,
        [](size_t i) {
          util::Rng rng = util::TaskRng(123, i);
          double x = 0.0;
          for (int k = 0; k < 100; ++k) x += rng.UniformDouble(0.0, 1.0);
          return x;
        },
        {.threads = threads});
  };
  std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

// --- End-to-end invariance: the replicate loops this PR parallelized ------

bench::World TinyWorld() {
  bench::WorldConfig config;
  config.num_peers = 80;
  config.num_edges = 400;
  config.tuples_per_peer = 20;
  return bench::BuildWorld(config);
}

bench::RunConfig TinyRunConfig() {
  bench::RunConfig config;
  config.repetitions = 5;
  config.initial_sample_tuples = 200;
  return config;
}

void ExpectSameStats(const bench::RunStats& a, const bench::RunStats& b,
                     const char* label) {
  EXPECT_EQ(a.mean_error, b.mean_error) << label;
  EXPECT_EQ(a.max_error, b.max_error) << label;
  EXPECT_EQ(a.mean_sample_tuples, b.mean_sample_tuples) << label;
  EXPECT_EQ(a.mean_phase2_peers, b.mean_phase2_peers) << label;
  EXPECT_EQ(a.mean_peers_visited, b.mean_peers_visited) << label;
  EXPECT_EQ(a.mean_messages, b.mean_messages) << label;
  EXPECT_EQ(a.mean_bytes, b.mean_bytes) << label;
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
}

TEST(ParallelInvarianceTest, RunExperimentBitIdenticalAcrossThreadCounts) {
  bench::World world = TinyWorld();
  bench::RunConfig config = TinyRunConfig();
  bench::RunStats serial;
  {
    ScopedThreads guard("1");
    serial = bench::RunExperiment(world, config);
  }
  {
    ScopedThreads guard("2");
    ExpectSameStats(serial, bench::RunExperiment(world, config), "threads=2");
  }
  {
    ScopedThreads guard("8");
    ExpectSameStats(serial, bench::RunExperiment(world, config), "threads=8");
  }
}

TEST(ParallelInvarianceTest, RunReplicatesBitIdenticalAcrossThreadCounts) {
  auto replicate = [](uint64_t seed, size_t) {
    util::Rng rng(seed);
    double x = 0.0;
    for (int k = 0; k < 1000; ++k) x += rng.UniformDouble(-1.0, 1.0);
    return x;
  };
  util::RunningStat serial;
  {
    ScopedThreads guard("1");
    serial = verify::RunReplicates(64, 0xabcdef, replicate);
  }
  for (const char* threads : {"2", "8"}) {
    ScopedThreads guard(threads);
    util::RunningStat stat = verify::RunReplicates(64, 0xabcdef, replicate);
    EXPECT_EQ(serial.count(), stat.count()) << "threads=" << threads;
    EXPECT_EQ(serial.mean(), stat.mean()) << "threads=" << threads;
    EXPECT_EQ(serial.variance(), stat.variance()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace p2paqp
