#include "simulation/query_workload.h"

#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "obs/metrics.h"
#include "similarity/value.h"

namespace alex::simulation {

FederatedWorkload MakeFederatedWorkload(const datagen::GeneratedPair& pair,
                                        size_t n, uint64_t seed) {
  FederatedWorkload workload;
  std::vector<feedback::PairKey> truth = pair.truth.AsVector();
  std::sort(truth.begin(), truth.end());
  Rng rng(seed);
  rng.Shuffle(&truth);
  if (truth.size() > n) truth.resize(n);

  for (feedback::PairKey key : truth) {
    const rdf::EntityId left = feedback::PairLeft(key);
    const rdf::EntityId right = feedback::PairRight(key);
    // Ask for the value of one right-side attribute of the left entity —
    // answerable only by crossing a sameAs link.
    const auto& attrs = pair.right.attributes(right);
    if (attrs.empty()) continue;
    const rdf::Attribute& attr =
        attrs[static_cast<size_t>(rng.UniformInt(attrs.size()))];
    const std::string pred_iri =
        pair.right.dict().term(attr.predicate).value;
    workload.queries.push_back("SELECT ?v WHERE { <" +
                               pair.left.entity_iri(left) + "> <" + pred_iri +
                               "> ?v . }");
    workload.subjects.push_back(key);
  }
  return workload;
}

namespace {

/// Folds one query result into the running stats, in workload order.
void AccumulateResult(const Result<fed::FederatedResult>& result,
                      WorkloadRunStats* stats) {
  if (!result.ok()) {
    ++stats->failed;
    return;
  }
  if (result->degraded) ++stats->degraded;
  if (result->NumRows() > 0) ++stats->answered;
  stats->rows += result->NumRows();
  for (const fed::ProvenancedRow& row : result->rows) {
    stats->links_observed.insert(stats->links_observed.end(),
                                 row.links_used.begin(),
                                 row.links_used.end());
  }
}

}  // namespace

WorkloadRunStats ExecuteFederatedWorkload(const fed::FederatedEngine& engine,
                                          const FederatedWorkload& workload,
                                          const WorkloadExecOptions& options) {
  WorkloadRunStats stats;
  stats.total = workload.queries.size();

  // Parallel path: fan queries across the pool, merge in workload order so
  // the outcome is indistinguishable from a sequential run.
  if (options.pool != nullptr && workload.queries.size() > 1) {
    static obs::Counter& parallel_queries =
        obs::MetricsRegistry::Global().counter("fed.parallel_queries");
    std::vector<std::optional<Result<fed::FederatedResult>>> results(
        workload.queries.size());
    ParallelFor(options.pool, workload.queries.size(), [&](size_t i) {
      results[i] = engine.ExecuteText(workload.queries[i]);
      // Counted per query actually executed on the pool path, not bulk
      // up front: if a worker throws mid-workload, the counter reflects
      // the queries that ran rather than the whole batch.
      parallel_queries.Add(1);
    });
    for (const auto& result : results) {
      if (!result.has_value()) {
        // Unreachable today (ParallelFor rethrows after filling or dying),
        // but a skipped slot must count as a failure, not crash the merge.
        ++stats.failed;
        continue;
      }
      AccumulateResult(*result, &stats);
    }
    if (options.hub != nullptr) options.hub->MaybeSample();
    return stats;
  }

  for (const std::string& query : workload.queries) {
    AccumulateResult(engine.ExecuteText(query), &stats);
    if (options.hub != nullptr) options.hub->MaybeSample();
  }
  return stats;
}

fed::LinkIndex LinksFromPairs(
    const datagen::GeneratedPair& pair,
    const std::vector<feedback::PairKey>& pair_keys) {
  fed::LinkIndex index;
  for (feedback::PairKey key : pair_keys) {
    index.Add(pair.left.entity_iri(feedback::PairLeft(key)),
              pair.right.entity_iri(feedback::PairRight(key)));
  }
  return index;
}

}  // namespace alex::simulation
