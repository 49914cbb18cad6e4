// google-benchmark micro-benchmarks of the library's hot paths: walker
// hops, local execution, estimation and topology/data generation.
//
// `--json` (or a non-empty P2PAQP_BENCH_JSON) writes the full google-benchmark
// JSON report to BENCH_micro_benchmarks.json in the working directory, the
// same convention the figure binaries use for their telemetry files.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/aqp.h"
#include "net/arena.h"
#include "net/event_sim.h"
#include "util/alias_table.h"
#include "util/parallel.h"

namespace p2paqp {
namespace {

net::SimulatedNetwork& SharedNetwork() {
  static net::SimulatedNetwork* network = [] {
    util::Rng rng(1);
    auto graph = topology::MakeBarabasiAlbert(5000, 10, rng);
    P2PAQP_CHECK(graph.ok());
    data::DatasetParams dataset;
    dataset.num_tuples = 500000;
    auto table = data::GenerateDataset(dataset, rng);
    P2PAQP_CHECK(table.ok());
    auto dbs = data::PartitionAcrossPeers(*table, *graph,
                                          data::PartitionParams{}, rng);
    P2PAQP_CHECK(dbs.ok());
    auto net_result = net::SimulatedNetwork::Make(
        std::move(*graph), std::move(*dbs), net::NetworkParams{}, 2);
    P2PAQP_CHECK(net_result.ok());
    return new net::SimulatedNetwork(std::move(*net_result));
  }();
  return *network;
}

void BM_WalkerHops(benchmark::State& state) {
  net::SimulatedNetwork& network = SharedNetwork();
  sampling::RandomWalk walk(&network,
                            sampling::WalkParams{.jump = state.range(0) > 0
                                                     ? static_cast<size_t>(
                                                           state.range(0))
                                                     : 1});
  util::Rng rng(3);
  for (auto _ : state) {
    auto visits = walk.Collect(0, 10, rng);
    benchmark::DoNotOptimize(visits);
  }
  state.SetItemsProcessed(state.iterations() * 10 * state.range(0));
}
BENCHMARK(BM_WalkerHops)->Arg(1)->Arg(10)->Arg(100);

void BM_LocalExecute(benchmark::State& state) {
  net::SimulatedNetwork& network = SharedNetwork();
  query::AggregateQuery query;
  query.predicate = {1, 30};
  util::Rng rng(4);
  auto t = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto result = query::ExecuteLocal(network.peer(7).database(), query, t,
                                      rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LocalExecute)->Arg(0)->Arg(25);

void BM_HorvitzThompson(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<core::WeightedObservation> observations;
  for (int i = 0; i < state.range(0); ++i) {
    observations.push_back({rng.UniformDouble(0, 100),
                            static_cast<double>(rng.UniformInt(1, 40))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::HorvitzThompson(observations, 1e5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HorvitzThompson)->Arg(80)->Arg(1000);

void BM_CrossValidate(benchmark::State& state) {
  util::Rng make_rng(6);
  std::vector<core::WeightedObservation> observations;
  for (int i = 0; i < 80; ++i) {
    observations.push_back({make_rng.UniformDouble(0, 100),
                            static_cast<double>(make_rng.UniformInt(1, 40))});
  }
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CrossValidate(observations, 1e5, 10, rng));
  }
}
BENCHMARK(BM_CrossValidate);

void BM_ZipfSample(benchmark::State& state) {
  auto zipf = util::ZipfGenerator::Make(100, 1.0);
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf->Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

std::vector<double> BenchWeights(size_t n) {
  util::Rng rng(11);
  std::vector<double> weights;
  weights.reserve(n);
  for (size_t i = 0; i < n; ++i) weights.push_back(rng.UniformDouble(0.1, 10.0));
  return weights;
}

// Linear-scan weighted draw (O(n) per draw) vs. the Walker alias table
// (O(1) per draw) over the same weight vector.
void BM_WeightedIndexLinear(benchmark::State& state) {
  std::vector<double> weights = BenchWeights(static_cast<size_t>(state.range(0)));
  util::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.WeightedIndex(weights));
  }
}
BENCHMARK(BM_WeightedIndexLinear)->Arg(100)->Arg(1000);

void BM_WeightedIndexAlias(benchmark::State& state) {
  util::AliasTable table(BenchWeights(static_cast<size_t>(state.range(0))));
  util::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.WeightedIndex(table));
  }
}
BENCHMARK(BM_WeightedIndexAlias)->Arg(100)->Arg(1000);

void BM_BuildPowerLawGraph(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(9);
    auto graph = topology::MakePowerLawWithEdgeCount(n, n * 10, rng);
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * 10);
}
BENCHMARK(BM_BuildPowerLawGraph)->Arg(1000)->Arg(10000);

// Deterministic pseudo-times spreading events over a window so the heap
// stays deep (the async engine's worst case), cheap enough to not dominate.
inline double EventTime(uint64_t i) {
  return static_cast<double>((i * 2654435761u) % 1000000u);
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    net::EventQueue queue;
    queue.Reserve(n);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      queue.ScheduleAt(EventTime(i), [&sum, i] { sum += i; });
    }
    queue.RunUntilEmpty(n + 1);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 14)->Arg(1000000);

// Steady-state churn: a bounded pending set with every executed event
// scheduling a successor — the shape the async engine and the multi-query
// scheduler actually produce. The slab free-list recycles the same slots.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto pending = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kEvents = 1 << 16;
  for (auto _ : state) {
    net::EventQueue queue;
    queue.Reserve(pending);
    uint64_t executed = 0;
    uint64_t scheduled = 0;
    std::function<void()> chain = [&] {
      ++executed;
      if (scheduled < kEvents) {
        queue.ScheduleAfter(EventTime(++scheduled) + 1.0, chain);
      }
    };
    for (uint64_t i = 0; i < pending; ++i) {
      ++scheduled;
      queue.ScheduleAt(EventTime(i), chain);
    }
    queue.RunUntilEmpty(kEvents + 1);
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

// Batched step events: `width` walkers all pending at the same tick, each
// step rescheduling its walker one tick later — the async engine's hop
// pattern. One pop gathers the whole tick into a single RunSteps call, so
// this measures the batch kernel's dispatch cost per hop (compare
// BM_EventQueueChurn, which pays the full per-callback pop for each event).
void BM_EventQueueStepBatch(benchmark::State& state) {
  const auto width = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kEvents = 1 << 16;
  struct Stepper final : public net::StepHandler {
    net::EventQueue* queue = nullptr;
    uint64_t executed = 0;
    uint64_t budget = 0;
    void RunSteps(const uint32_t* args, size_t n) override {
      for (size_t i = 0; i < n; ++i) {
        ++executed;
        if (budget > 0) {
          --budget;
          queue->ScheduleStepAfter(1.0, this, args[i]);
        }
      }
    }
  };
  for (auto _ : state) {
    net::EventQueue queue;
    queue.Reserve(width);
    Stepper stepper;
    stepper.queue = &queue;
    stepper.budget = kEvents - width;
    for (uint64_t i = 0; i < width; ++i) {
      queue.ScheduleStepAt(0.0, &stepper, static_cast<uint32_t>(i));
    }
    queue.RunUntilEmpty(kEvents + 1);
    benchmark::DoNotOptimize(stepper.executed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueStepBatch)->Arg(4)->Arg(64)->Arg(4096);

// The reply-payload shape the async engine parks in its arena.
struct BenchPayload {
  uint64_t a = 0;
  uint64_t b = 0;
  double values[6] = {};
};

// Slot recycling at a bounded live set: the steady state acquires and
// releases the same cache-warm cells through the LIFO free list.
void BM_ArenaAcquireRelease(benchmark::State& state) {
  const auto live = static_cast<size_t>(state.range(0));
  constexpr uint64_t kOps = 1 << 16;
  std::vector<net::ArenaHandle> handles(live);
  for (auto _ : state) {
    net::SlotArena<BenchPayload> arena;
    arena.Reserve(live);
    for (size_t i = 0; i < live; ++i) handles[i] = arena.Acquire();
    uint64_t sum = 0;
    for (uint64_t op = 0; op < kOps; ++op) {
      size_t slot = op % live;
      arena.at(handles[slot]).a = op;
      sum += arena.at(handles[slot]).a;
      arena.Release(handles[slot]);
      handles[slot] = arena.Acquire();
    }
    for (size_t i = 0; i < live; ++i) arena.Release(handles[i]);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kOps));
}
BENCHMARK(BM_ArenaAcquireRelease)->Arg(16)->Arg(1024);

// The allocation pattern the arena replaced: one new/delete per in-flight
// payload.
void BM_ArenaHeapBaseline(benchmark::State& state) {
  const auto live = static_cast<size_t>(state.range(0));
  constexpr uint64_t kOps = 1 << 16;
  std::vector<BenchPayload*> payloads(live);
  for (auto _ : state) {
    for (size_t i = 0; i < live; ++i) payloads[i] = new BenchPayload;
    uint64_t sum = 0;
    for (uint64_t op = 0; op < kOps; ++op) {
      size_t slot = op % live;
      payloads[slot]->a = op;
      sum += payloads[slot]->a;
      delete payloads[slot];
      payloads[slot] = new BenchPayload;
    }
    for (size_t i = 0; i < live; ++i) delete payloads[i];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kOps));
}
BENCHMARK(BM_ArenaHeapBaseline)->Arg(16)->Arg(1024);

void BM_EndToEndCountQuery(benchmark::State& state) {
  net::SimulatedNetwork& network = SharedNetwork();
  core::SystemCatalog catalog = core::MakeCatalog(network.graph(), 10, 50);
  core::EngineParams params;
  params.phase1_peers = 80;
  core::TwoPhaseEngine engine(&network, catalog, params);
  query::AggregateQuery query;
  query.predicate = {1, 30};
  query.required_error = 0.1;
  util::Rng rng(10);
  for (auto _ : state) {
    auto answer = engine.Execute(query, 0, rng);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_EndToEndCountQuery);

}  // namespace
}  // namespace p2paqp

// BENCHMARK_MAIN(), plus the repo's --json/P2PAQP_BENCH_JSON convention:
// inject the google-benchmark JSON reporter flags and record the parallel
// layer's thread count and the world scale in the report context.
int main(int argc, char** argv) {
  bool json = false;
  const char* env = std::getenv("P2PAQP_BENCH_JSON");
  if (env != nullptr && env[0] != '\0') json = true;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--json") == 0) {
      json = true;
      continue;  // Not a google-benchmark flag; consume it here.
    }
    args.push_back(argv[i]);
  }
  static std::string out_flag =
      "--benchmark_out=BENCH_micro_benchmarks.json";
  static std::string format_flag = "--benchmark_out_format=json";
  if (json) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  benchmark::AddCustomContext(
      "p2paqp_threads", std::to_string(p2paqp::util::ParallelThreads()));
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
