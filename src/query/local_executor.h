// Local (per-peer) query execution — the paper's Visit() pseudocode.
//
// A visited peer runs the query against its own partition. If the partition
// exceeds the sub-sampling budget t, the query runs on a uniform random
// t-subset and the aggregate is scaled by (#tuples / #processedTuples) so the
// reply estimates the peer's full local aggregate.
#ifndef P2PAQP_QUERY_LOCAL_EXECUTOR_H_
#define P2PAQP_QUERY_LOCAL_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/local_database.h"
#include "query/query.h"
#include "util/rng.h"

namespace p2paqp::query {

// What a visited peer ships back to the sink (plus its degree, which the
// transport layer attaches). Both COUNT and SUM components are always
// populated — they come from the same scan and AVG needs their ratio.
struct LocalAggregate {
  // Scaled local COUNT of predicate matches.
  double count_value = 0.0;
  // Scaled local SUM of matching values.
  double sum_value = 0.0;
  // Scaled local SUM over *all* tuples (no predicate). Ships in the same
  // reply; the sink uses it to normalize errors the way the paper does
  // (relative to the total aggregate, Sec. 3.4: "divide the variance by
  // N^2 ... the error of the relative count aggregate").
  double total_sum_value = 0.0;
  // phi-quantile of the processed tuples' values (phi = query.quantile_phi
  // for kQuantile, 0.5 otherwise); 0 when nothing was processed.
  double local_median = 0.0;
  // Size of the peer's full local database.
  uint64_t local_tuples = 0;
  // Tuples actually read (min(t, local size)).
  uint64_t processed_tuples = 0;

  // The y(p) relevant to `op` (count for kCount/kAvg denominators are taken
  // separately; sum for kSum).
  double ValueFor(AggregateOp op) const {
    return op == AggregateOp::kSum ? sum_value : count_value;
  }
};

// How a peer draws its local sub-sample.
enum class SubSampleMode {
  kUniformTuples = 0,  // t independent random tuples (paper's default).
  kBlockLevel,         // Whole random disk blocks until >= t tuples.
};

struct SubSamplePolicy {
  // Max tuples to process (0 = scan everything).
  uint64_t t = 25;
  SubSampleMode mode = SubSampleMode::kUniformTuples;
  // Tuples per disk block for kBlockLevel.
  size_t block_size = 8;
};

// Reusable working storage for ExecuteLocal. One visit needs the processed
// rows' measures (quantile input), the sampled tuple indices or block spans,
// and the sampler's own scratch; capacities plateau at the sub-sampling
// budget, so a warmed scratch makes every later visit allocation-free — the
// property the event-driven engine's zero-allocation steady state is built
// on (docs/PERFORMANCE.md).
struct LocalExecScratch {
  std::vector<double> values;
  std::vector<size_t> indices;
  std::vector<std::pair<size_t, size_t>> spans;
  util::SampleScratch sample;

  // Grows every buffer to what a scan under budget `t` > 0 can need, so
  // later scans do not allocate (t == 0 grows with the largest table).
  void Reserve(size_t t);
};

// Executes `query` on `db` under the given sub-sampling policy.
LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query,
                            const SubSamplePolicy& policy, util::Rng& rng);

// Scratch-reusing variant: identical result from the identical RNG stream,
// with all working storage in `scratch`.
LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query,
                            const SubSamplePolicy& policy, util::Rng& rng,
                            LocalExecScratch* scratch);

// Convenience: uniform tuple sampling with budget `t` (t == 0 disables
// sub-sampling, i.e. always scans everything).
LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query, uint64_t t,
                            util::Rng& rng);

}  // namespace p2paqp::query

#endif  // P2PAQP_QUERY_LOCAL_EXECUTOR_H_
