// p2paqp benchmark binary: one workload as a closed-loop query stream.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt answer|digest] [--scratch <dir>]
//             [--source-id <id>]
//
// One client in one process sends query i+1 only after query i's answer
// returned and passed the output check. --trace 0 measures the end-to-end
// metrics with nothing traced; --trace 1 is the separate traced run that
// gives the per-layer metrics. The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it state each metric's direction and sample count and the
// configuration that produced the run.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/event_sim.h"
#include "pace.h"
#include "probes.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace p2paqp::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string corrupt;
  std::string scratch = ".bench_build/perfbench-scratch";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--corrupt") {
      args->corrupt = value;
      if (args->corrupt != "answer" && args->corrupt != "digest") return false;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

void SetThreads(size_t threads) {
  ::setenv("P2PAQP_THREADS", std::to_string(threads).c_str(), 1);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / values.size();
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// Folds one query's deterministic outputs into a replay digest.
uint64_t Fold(uint64_t digest, const QueryOutcome& outcome) {
  auto mix = [&digest](uint64_t value) {
    digest = util::MixSeed(digest ^ value) + 0x9E3779B97F4A7C15ULL;
  };
  uint64_t estimate_bits = 0;
  uint64_t makespan_bits = 0;
  std::memcpy(&estimate_bits, &outcome.answer.estimate, sizeof(double));
  std::memcpy(&makespan_bits, &outcome.makespan_ms, sizeof(double));
  mix(outcome.ok);
  mix(estimate_bits);
  mix(outcome.answer.cost.messages);
  mix(makespan_bits);
  return digest;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  // "lower" or "higher".
  size_t samples;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Emit(Result result) {
  for (Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", metric.name.c_str());
      metric.value = 0.0;
      result.correct = false;
    }
    std::printf("%-34s %16.6f %-12s better=%-6s samples=%zu\n",
                metric.name.c_str(), metric.value, metric.unit.c_str(),
                metric.better.c_str(), metric.samples);
  }
  std::string config = "{";
  for (size_t i = 0; i < result.config.size(); ++i) {
    config += (i == 0 ? "" : ", ") + JsonString(result.config[i].first) +
              ": " + JsonString(result.config[i].second);
  }
  std::printf("config %s}\n", config.c_str());
  std::string metrics;
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    metrics += (i == 0 ? "" : ", ") + JsonString(metric.name) +
               ": {\"value\": " + JsonNumber(metric.value) +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

std::string Format(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

void DescribeConfig(const Args& args, const WorkloadSpec& spec,
                    const Instance& instance, Result* result) {
  const char* numa = std::getenv("P2PAQP_NUMA");
  result->config = {
      {"workload", spec.name},
      {"why", spec.why},
      {"seed", std::to_string(args.seed)},
      {"seconds", Format(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"tiny", args.tiny ? "1" : "0"},
      {"peers", std::to_string(instance.total_peers())},
      {"edges", std::to_string(instance.total_edges())},
      {"P2PAQP_THREADS", std::to_string(spec.threads)},
      {"digest_alt_threads", std::to_string(spec.alt_threads)},
      {"event_shards", std::to_string(net::EventQueue::ResolvedShards())},
      {"P2PAQP_NUMA", numa != nullptr ? numa : "unset"},
      {"P2PAQP_BUILD_SPILL_EDGES", std::to_string(spec.spill_edges)},
      {"P2PAQP_BUILD_MERGE_FAN_IN", std::to_string(spec.merge_fan_in)},
      {"spill_files", std::to_string(SpillFilesCreated())},
      {"fixed_queries", std::to_string(spec.fixed_queries)},
      {"setups", std::to_string(spec.setups)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"source", args.source_id},
  };
}

std::unique_ptr<Instance> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                size_t threads, double* setup_s,
                                StageTimes* stages) {
  SetThreads(threads);
  StageTimes local;
  StageTimes* times = stages != nullptr ? stages : &local;
  double warmup_s = 0.0;
  auto instance = std::make_unique<Instance>(spec, seed, times, &warmup_s);
  *setup_s = times->topology_s + times->generate_s + times->partition_s +
             times->make_s + times->prefault_s + warmup_s;
  return instance;
}

// Stream queries whose error is also computed by bench::NormalizedError's
// full scan, to hold the cached oracle to it.
constexpr size_t kReferenceChecks = 8;

// Pace slices measured before and after each set-up; in the stream, a slice
// runs before every kQueriesPerSlice-th query, and each query is paced by
// the slices within kQuerySliceRadius of its own.
constexpr size_t kSetUpSlices = 8;
constexpr size_t kQueriesPerSlice = 4;
constexpr size_t kQuerySliceRadius = 16;

uint64_t ReplayDigest(Instance& instance, size_t queries) {
  uint64_t digest = 0;
  for (size_t i = 0; i < queries; ++i) {
    digest = Fold(digest, instance.Run(i, nullptr));
  }
  return digest;
}

// --trace 0: the end-to-end metrics.
int RunMeasured(const Args& args, const WorkloadSpec& spec) {
  std::vector<double> setup_times;
  uint64_t replay = 0;
  double peak_rss_mb = 0.0;
  // After the first set-up, a fresh set-up under the alternate thread count
  // replays the fixed prefix; the measured stream, on the last set-up under
  // the pinned count, must reproduce its digest, which checks a second
  // set-up and a second thread count at once. Each set-up time is paced by
  // the slices just before and just after it.
  Pace pace;
  std::vector<double> raw_setup_times;
  std::vector<double> setup_slices;
  std::unique_ptr<Instance> instance;
  for (size_t s = 0; s < spec.setups; ++s) {
    std::vector<double> around;
    for (size_t k = 0; k < kSetUpSlices; ++k) around.push_back(pace.Slice());
    double setup_s = 0.0;
    instance = SetUp(spec, args.seed, spec.threads, &setup_s, nullptr);
    for (size_t k = 0; k < kSetUpSlices; ++k) around.push_back(pace.Slice());
    raw_setup_times.push_back(setup_s);
    setup_slices.insert(setup_slices.end(), around.begin(), around.end());
    setup_times.push_back(Paced(setup_s, std::move(around)));
    if (s == 0) {
      peak_rss_mb = PeakRssMb();
      instance.reset();
      double alt_setup_s = 0.0;
      instance = SetUp(spec, args.seed, spec.alt_threads, &alt_setup_s,
                       nullptr);
      replay = ReplayDigest(*instance, spec.fixed_queries);
    }
    if (s + 1 < spec.setups) instance.reset();
  }
  SetThreads(spec.threads);

  Result result;
  DescribeConfig(args, spec, *instance, &result);
  std::vector<double> walls;
  std::vector<double> slices;
  std::vector<double> makespans;
  std::vector<double> errors;
  double messages = 0.0;
  double sample_tuples = 0.0;
  size_t fixed_answered = 0;
  size_t within = 0;
  size_t answered = 0;
  uint64_t digest = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= spec.fixed_queries && elapsed >= args.seconds) break;
    if (i % kQueriesPerSlice == 0) slices.push_back(pace.Slice());
    const bool reference = i < kReferenceChecks;
    const QueryOutcome outcome = instance->Run(
        i, nullptr, args.corrupt == "answer" && i == 1, reference);
    ++result.attempted;
    if (reference && outcome.ok && outcome.error != outcome.reference_error) {
      std::fprintf(stderr, "query %zu: oracle error %.17g, full scan %.17g\n",
                   i, outcome.error, outcome.reference_error);
      result.correct = false;
    }
    walls.push_back(outcome.wall_s);
    const bool good = outcome.ok && outcome.checked;
    if (!good) ++result.failed;
    if (outcome.ok && !outcome.checked) {
      std::fprintf(stderr, "query %zu failed the output check: %s\n", i,
                   outcome.answer.ToString().c_str());
      result.correct = false;
    }
    answered += good;
    if (i < spec.fixed_queries) digest = Fold(digest, outcome);
    if (i >= spec.fixed_queries || !good) continue;
    ++fixed_answered;
    messages += static_cast<double>(outcome.answer.cost.messages);
    sample_tuples += static_cast<double>(outcome.answer.sample_tuples);
    makespans.push_back(outcome.makespan_ms);
    errors.push_back(outcome.error);
    within += outcome.error <= outcome.generated.query.required_error;
  }
  if (args.corrupt == "digest") digest ^= 1;
  if (replay != digest) {
    std::fprintf(stderr,
                 "replay digest mismatch: stream %016llx, replay %016llx\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(replay));
    result.correct = false;
  }
  result.config.push_back({"digest", std::to_string(digest)});
  // The unpaced figures, for reading the paced ones against.
  result.config.push_back(
      {"pace_slice_us_p50", Format(1e6 * Percentile(slices, 0.5))});
  result.config.push_back(
      {"wall_setup_s", Format(Percentile(raw_setup_times, 0.5))});
  result.config.push_back(
      {"pace_setup_slice_us_p50",
       Format(1e6 * Percentile(setup_slices, 0.5))});
  result.config.push_back(
      {"wall_queries_per_s",
       Format(Ratio(static_cast<double>(answered), Sum(walls)))});
  result.config.push_back(
      {"wall_query_ms_p50", Format(1e3 * Percentile(walls, 0.50))});
  result.config.push_back(
      {"wall_query_ms_p99", Format(1e3 * Percentile(walls, 0.99))});
  const std::vector<double> paced =
      PacedTimes(walls, slices, kQueriesPerSlice, kQuerySliceRadius);

  const size_t k = spec.fixed_queries;
  const double fixed_n = static_cast<double>(fixed_answered);
  result.metrics = {
      {"setup_s", Percentile(setup_times, 0.5), "s", "lower",
       setup_times.size()},
      {"setup_peak_rss_mb", peak_rss_mb, "MB", "lower", 1},
      {"queries_per_s", Ratio(static_cast<double>(answered), Sum(paced)),
       "queries/s", "higher", paced.size()},
      {"query_ms_p50", 1e3 * Percentile(paced, 0.50), "ms", "lower",
       paced.size()},
      {"query_ms_p99", 1e3 * Percentile(paced, 0.99), "ms", "lower",
       paced.size()},
      {"messages_per_query", Ratio(messages, fixed_n), "messages", "lower",
       fixed_answered},
      {"sample_tuples_per_query", Ratio(sample_tuples, fixed_n), "tuples",
       "lower", fixed_answered},
      {"makespan_ms_p50", Percentile(makespans, 0.50), "sim_ms", "lower",
       makespans.size()},
      {"makespan_ms_p99", Percentile(makespans, 0.99), "sim_ms", "lower",
       makespans.size()},
      {"mean_error", Mean(errors), "fraction", "lower", errors.size()},
      {"within_req_frac", Ratio(static_cast<double>(within), fixed_n),
       "fraction", "higher", fixed_answered},
      {"answered_frac", Ratio(fixed_n, static_cast<double>(k)), "fraction",
       "higher", k},
  };
  return Emit(std::move(result));
}

// --trace 1: the per-layer metrics. Chunks of queries alternate between
// untraced and traced so both see the same warm state; the difference in
// their throughput is the tracing overhead.
int RunTraced(const Args& args, const WorkloadSpec& spec) {
  StageTimes stages;
  double setup_s = 0.0;
  std::unique_ptr<Instance> instance =
      SetUp(spec, args.seed, spec.threads, &setup_s, &stages);
  Result result;
  DescribeConfig(args, spec, *instance, &result);

  constexpr size_t kChunk = 16;
  Tracer tracer;
  double wall[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  double untraced_events = 0.0;
  // Per-query sums over every query of the run.
  double hops = 0, scanned = 0, phase1 = 0, phase2 = 0, events = 0,
         allocs = 0, messages = 0, delivered = 0, hedges = 0, duplicates = 0,
         skips = 0, degraded = 0, deadline_hits = 0, lost = 0;
  // Traced-query sums joined with the probes' unit costs.
  double traced_hops = 0, traced_events = 0, traced_replies = 0,
         traced_visits = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= 4 * kChunk && elapsed >= args.seconds) break;
    const bool traced = (i / kChunk) % 2 == 1;
    const QueryOutcome outcome = instance->Run(i, traced ? &tracer : nullptr);
    ++result.attempted;
    if (!outcome.ok || !outcome.checked) ++result.failed;
    if (outcome.ok && !outcome.checked) result.correct = false;
    wall[traced] += outcome.wall_s;
    ++count[traced];
    const core::ApproximateAnswer& answer = outcome.answer;
    hops += answer.cost.walker_hops;
    scanned += answer.cost.tuples_scanned;
    phase1 += answer.phase1_peers;
    phase2 += answer.phase2_peers;
    events += outcome.events;
    allocs += outcome.drain_allocs;
    messages += answer.cost.messages;
    delivered += answer.cost.messages_delivered;
    hedges += answer.hedges_sent;
    duplicates += answer.duplicate_replies;
    skips += answer.stragglers_skipped;
    degraded += answer.degraded;
    deadline_hits += answer.deadline_hit;
    lost += answer.observations_lost;
    if (traced) {
      traced_hops += answer.cost.walker_hops;
      traced_events += outcome.events;
      traced_replies += answer.cost.messages - answer.cost.walker_hops;
      traced_visits += answer.cost.peers_visited;
    } else {
      untraced_events += outcome.events;
    }
  }

  const std::vector<WalkRecord>& walks = tracer.walks();
  // Churn steps are O(peers): probe them on the largest world.
  size_t largest = 0;
  for (size_t w = 0; w < instance->worlds().size(); ++w) {
    if (instance->worlds()[w].network.num_peers() >
        instance->worlds()[largest].network.num_peers()) {
      largest = w;
    }
  }
  const net::SimulatedNetwork& network = instance->worlds()[largest].network;
  const uint64_t probe_seed = util::MixSeed(args.seed ^ 0x70726F6265ULL);
  const double neighbors_ns = ProbeNeighborsNs(walks);
  const double event_ns = ProbeEventNs(spec, probe_seed);
  const double churn_step_ms = ProbeChurnStepMs(network, spec, probe_seed);
  const double send_ns = ProbeSendNs(walks);
  double walk_ns_per_hop = 0.0;
  double local_exec_ns = 0.0;
  double cv_us = 0.0;
  double unexplained = 0.0;
  size_t epochs = 0;
  for (const WalkRecord& walk : walks) epochs += walk.churn_epochs;
  const double epochs_per_query =
      Ratio(static_cast<double>(epochs), static_cast<double>(walks.size()));
  if (spec.async) {
    local_exec_ns = ProbeLocalExecNs(spec, walks, probe_seed);
    cv_us = ProbeCrossValidateUs(spec, walks, probe_seed);
    walk_ns_per_hop = ProbeWalkNsPerHop(spec, walks, probe_seed);
    // No span reaches inside the event loop: each layer's share of a traced
    // query is its count there times its probed unit cost.
    const double modeled_ns =
        traced_hops * walk_ns_per_hop + traced_events * event_ns +
        traced_replies * send_ns + traced_visits * local_exec_ns +
        static_cast<double>(tracer.queries()) *
            (1e3 * cv_us + 1e6 * epochs_per_query * churn_step_ms);
    unexplained = 1.0 - Ratio(modeled_ns, 1e9 * tracer.query_seconds());
  } else {
    const Tracer::LayerTotal sampling = tracer.layer("sampling");
    const Tracer::LayerTotal local = tracer.layer("query.local_exec");
    const Tracer::LayerTotal plan = tracer.layer("core");
    walk_ns_per_hop = 1e9 * Ratio(sampling.seconds, tracer.sampled_hops());
    local_exec_ns = 1e9 * Ratio(local.seconds, local.calls);
    cv_us = 1e6 * Ratio(plan.seconds, plan.calls);
    unexplained = 1.0 - Ratio(sampling.seconds + local.seconds + plan.seconds,
                              tracer.query_seconds());
  }

  size_t peers = 0;
  double graph_bytes = 0.0;
  for (const bench::World& world : instance->worlds()) {
    peers += world.network.num_peers();
    graph_bytes += static_cast<double>(world.network.graph().MemoryBytes());
  }
  const double n = static_cast<double>(result.attempted);
  const double untraced_qps = Ratio(count[0], wall[0]);
  const double traced_qps = Ratio(count[1], wall[1]);
  const std::string trace_path = args.scratch + "/trace-" + spec.name + "-" +
                                 std::to_string(args.seed) + ".json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    result.correct = false;
  }
  result.config.push_back({"chrome_trace", trace_path});
  result.config.push_back({"setup_s", Format(setup_s)});

  const size_t all = result.attempted;
  const size_t tq = tracer.queries();
  result.metrics = {
      {"topology.build_s", stages.topology_s, "s", "lower", 1},
      {"data.generate_s", stages.generate_s, "s", "lower", 1},
      {"data.partition_s", stages.partition_s, "s", "lower", 1},
      {"net.make_s", stages.make_s, "s", "lower", 1},
      {"io.prefault_s", stages.prefault_s, "s", "lower", 1},
      {"graph.bytes_per_peer", Ratio(graph_bytes, peers), "bytes", "lower", 1},
      {"graph.neighbors_ns", neighbors_ns, "ns", "lower", walks.size()},
      {"sampling.walk_ns_per_hop", walk_ns_per_hop, "ns", "lower", tq},
      {"sampling.hops_per_query", Ratio(hops, n), "hops", "lower", all},
      {"query.local_exec_ns_per_visit", local_exec_ns, "ns", "lower", tq},
      {"query.tuples_scanned_per_query", Ratio(scanned, n), "tuples", "lower",
       all},
      {"core.cv_us_per_query", cv_us, "us", "lower", tq},
      {"core.phase1_peers", Ratio(phase1, n), "peers", "lower", all},
      {"core.phase2_peers", Ratio(phase2, n), "peers", "lower", all},
      {"net.events_per_query", Ratio(events, n), "events", "lower", all},
      {"net.events_per_s", Ratio(untraced_events, wall[0]), "events/s",
       "higher", count[0]},
      {"net.event_ns", event_ns, "ns", "lower", 1},
      {"net.drain_allocs_per_event", Ratio(allocs, events), "allocs", "lower",
       all},
      {"net.send_ns", send_ns, "ns", "lower", walks.size()},
      {"net.delivered_frac", Ratio(delivered, messages), "fraction", "higher",
       all},
      {"net.hedges_per_query", Ratio(hedges, n), "messages", "lower", all},
      {"net.duplicate_replies_per_query", Ratio(duplicates, n), "messages",
       "lower", all},
      {"net.stragglers_skipped_per_query", Ratio(skips, n), "skips", "lower",
       all},
      {"net.churn_step_ms", churn_step_ms, "ms", "lower", 5},
      {"net.churn_epochs_per_query", epochs_per_query, "epochs", "lower",
       walks.size()},
      {"core.degraded_frac", Ratio(degraded, n), "fraction", "lower", all},
      {"core.deadline_hit_frac", Ratio(deadline_hits, n), "fraction", "lower",
       all},
      {"core.observations_lost_per_query", Ratio(lost, n), "observations",
       "lower", all},
      {"trace.unexplained_frac", unexplained, "fraction", "lower", tq},
      {"trace.overhead_frac", 1.0 - Ratio(traced_qps, untraced_qps),
       "fraction", "lower", all},
  };
  return Emit(std::move(result));
}

}  // namespace
}  // namespace p2paqp::perfbench

int main(int argc, char** argv) {
  using namespace p2paqp::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--corrupt answer|digest] "
                 "[--scratch <dir>] [--source-id <id>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec spec = FindWorkload(args.workload, args.tiny);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ::mkdir(args.scratch.c_str(), 0755);
  ::setenv("P2PAQP_PERFBENCH_SCRATCH", args.scratch.c_str(), 1);
  return args.trace == 1 ? RunTraced(args, spec) : RunMeasured(args, spec);
}
