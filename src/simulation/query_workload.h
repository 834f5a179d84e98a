#ifndef ALEX_SIMULATION_QUERY_WORKLOAD_H_
#define ALEX_SIMULATION_QUERY_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "federation/federated_engine.h"
#include "federation/link_index.h"
#include "obs/telemetry_hub.h"

namespace alex::simulation {

/// A FedBench-style workload of federated queries over a generated KB pair:
/// each query asks for right-side attributes of a left-side entity, so it
/// can only be answered through an owl:sameAs link — the query shape of the
/// paper's motivating example ("NYT articles about the NBA MVP").
struct FederatedWorkload {
  /// Query texts, one per ground-truth entity sampled.
  std::vector<std::string> queries;
  /// Parallel to `queries`: the ground-truth pair each query is about.
  std::vector<feedback::PairKey> subjects;
};

/// Samples `n` queries about distinct ground-truth entities (fewer if the
/// ground truth is smaller). Deterministic for a given seed.
FederatedWorkload MakeFederatedWorkload(const datagen::GeneratedPair& pair,
                                        size_t n, uint64_t seed);

/// Builds a LinkIndex (IRI-based) from a set of entity-pair keys.
fed::LinkIndex LinksFromPairs(
    const datagen::GeneratedPair& pair,
    const std::vector<feedback::PairKey>& pair_keys);

/// Outcome of one workload execution. Degraded queries are first-class:
/// their rows (and the links those rows crossed) still count, so the
/// feedback loop keeps learning from partial answers instead of stalling
/// whenever an endpoint fails a probe.
struct WorkloadRunStats {
  size_t total = 0;
  size_t answered = 0;   // Queries that returned at least one row.
  size_t degraded = 0;   // Queries flagged degraded (partial answer).
  size_t failed = 0;     // Queries that returned an error outright.
  size_t rows = 0;
  /// Every sameAs link crossed by a returned row (with repeats): the
  /// provenance stream ALEX's feedback loop consumes (Section 3.2).
  std::vector<fed::SameAsLink> links_observed;
};

/// How to execute a workload.
struct WorkloadExecOptions {
  /// When set, queries fan out across the pool and results merge back in
  /// workload order, so stats and `links_observed` are byte-identical to a
  /// sequential run.
  /// The endpoint stack must be thread-safe (plain Endpoints over stores
  /// with pre-built indexes are; call TripleStore::EnsureIndexes first).
  ThreadPool* pool = nullptr;
  /// When set, the executor gives the hub a sampling opportunity between
  /// queries (sequential path) or after the merge (parallel path), so long
  /// workloads emit a live time series instead of one end-of-run snapshot.
  obs::TelemetryHub* hub = nullptr;
};

/// Executes every query of the workload against `engine`, tolerating
/// per-query failures and collecting feedback provenance from whatever rows
/// arrived. Deterministic given a deterministic engine/endpoint stack —
/// including in parallel mode, whose merge is by query index.
/// Queries go through FederatedEngine::ExecuteText, so in compiled mode
/// each distinct query text is parsed and planned once per engine
/// (fed.plan_cache_hits counts the repeats) instead of once per call.
WorkloadRunStats ExecuteFederatedWorkload(
    const fed::FederatedEngine& engine, const FederatedWorkload& workload,
    const WorkloadExecOptions& options = {});

}  // namespace alex::simulation

#endif  // ALEX_SIMULATION_QUERY_WORKLOAD_H_
