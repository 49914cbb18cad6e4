#include "query/local_executor.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace p2paqp::query {

namespace {

// Streaming accumulator for one local execution: count/sum of predicate
// matches, the all-tuples total for error normalization, and the evaluated
// measure of every processed row (quantile input). Evaluates the measure
// expression exactly once per row — the old copy-then-rescan path evaluated
// it twice.
struct RowAccumulator {
  const AggregateQuery& query;
  int64_t count = 0;
  double sum = 0.0;
  double total_sum = 0.0;
  // Borrowed from the caller's scratch so repeat visits reuse capacity.
  std::vector<double>& values;

  RowAccumulator(const AggregateQuery& q, size_t expected_rows,
                 std::vector<double>& buffer)
      : query(q), values(buffer) {
    values.clear();
    if (values.capacity() < expected_rows) values.reserve(expected_rows);
  }

  void Add(const data::Tuple& t) {
    double measure = EvaluateExpression(query.expr, t);
    total_sum += measure;
    if (query.Matches(t)) {
      ++count;
      sum += measure;
    }
    values.push_back(measure);
  }

  // phi-quantile of the processed rows' measures; 0 when nothing processed.
  double Quantile(double phi) {
    if (values.empty()) return 0.0;
    auto k = static_cast<size_t>(phi * static_cast<double>(values.size()));
    k = std::min(k, values.size() - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<ptrdiff_t>(k), values.end());
    return values[k];
  }
};

}  // namespace

LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query, uint64_t t,
                            util::Rng& rng) {
  return ExecuteLocal(db, query, SubSamplePolicy{.t = t}, rng);
}

LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query,
                            const SubSamplePolicy& policy, util::Rng& rng) {
  LocalExecScratch scratch;
  return ExecuteLocal(db, query, policy, rng, &scratch);
}

void LocalExecScratch::Reserve(size_t t) {
  // At most t rows, indices, spans and draws; Rng::SampleIndicesInto
  // permutes up to 3t entries or stamps fewer than t^2 (capped at 2^16).
  values.reserve(t);
  indices.reserve(t);
  spans.reserve(t);
  sample.draws.reserve(t);
  sample.identity.reserve(3 * t);
  const size_t stamps = std::min<size_t>(t * t, size_t{1} << 16);
  if (sample.stamp.size() < stamps) sample.stamp.resize(stamps, 0);
}

LocalAggregate ExecuteLocal(const data::LocalDatabase& db,
                            const AggregateQuery& query,
                            const SubSamplePolicy& policy, util::Rng& rng,
                            LocalExecScratch* scratch) {
  const uint64_t t = policy.t;
  LocalAggregate result;
  result.local_tuples = db.size();
  if (db.empty()) return result;

  const bool subsample = t > 0 && db.size() > t;
  double phi = query.op == AggregateOp::kQuantile ? query.quantile_phi : 0.5;
  const data::Table& all = db.tuples();

  // Scan the selected rows in place — no per-visit Table materialization.
  // The sampled row order matches the old Sample()/SampleBlockLevel() copies
  // exactly (same RNG stream), so accumulation is bit-identical.
  RowAccumulator acc(query, subsample ? static_cast<size_t>(t) : all.size(),
                     scratch->values);
  if (!subsample) {
    for (const data::Tuple& tuple : all) acc.Add(tuple);
  } else if (policy.mode == SubSampleMode::kBlockLevel) {
    db.SampleBlockSpansInto(t, policy.block_size, rng, &scratch->sample,
                            &scratch->spans);
    for (auto [begin, end] : scratch->spans) {
      for (size_t i = begin; i < end; ++i) acc.Add(all[i]);
    }
  } else {
    db.SampleTupleIndicesInto(t, rng, &scratch->sample, &scratch->indices);
    for (size_t index : scratch->indices) acc.Add(all[index]);
  }

  result.processed_tuples = acc.values.size();
  // y(Curr) = (#tuples / #processedTuples) * result_of_Q.
  double scale = subsample ? static_cast<double>(db.size()) /
                                 static_cast<double>(result.processed_tuples)
                           : 1.0;
  result.count_value = static_cast<double>(acc.count) * scale;
  result.sum_value = acc.sum * scale;
  result.total_sum_value = acc.total_sum * scale;
  result.local_median = acc.Quantile(phi);
  return result;
}

}  // namespace p2paqp::query
