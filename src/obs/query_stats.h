#ifndef ALEX_OBS_QUERY_STATS_H_
#define ALEX_OBS_QUERY_STATS_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace alex::obs {

/// Per-query cost accounting for the federated stack.
///
/// FederatedEngine opens a QueryStatsScope around each query; the engine
/// (probes) and the probe cache (hits, misses) bump the thread's
/// ActiveQueryStats as the query flows through them. On completion the
/// engine folds the tallies into a QueryStats record and hands it to the
/// global QueryLog, which keeps workload-level aggregates plus a bounded
/// ring of the slowest queries — each carrying its trace id as an exemplar,
/// so a slow entry in a telemetry sidecar links straight to its span tree
/// in the Chrome trace.
///
/// Like the trace context, propagation is thread-local: one federated query
/// executes entirely on one thread (the parallel workload path runs whole
/// queries per worker), so no cross-thread handoff is needed.

/// Mutable tally for the query currently executing on this thread. Plain
/// integers — only the owning thread touches it.
struct ActiveQueryStats {
  uint64_t probes = 0;
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;
};

/// The tally of the innermost open QueryStatsScope on this thread, or
/// nullptr outside any federated query. Instrumentation sites null-check
/// and bump; the cost when no query is active is one thread-local load.
ActiveQueryStats* CurrentQueryStats();

/// RAII: installs `stats` as the thread's active tally, restoring the
/// previous one (normally nullptr) on destruction.
class QueryStatsScope {
 public:
  explicit QueryStatsScope(ActiveQueryStats* stats);
  QueryStatsScope(const QueryStatsScope&) = delete;
  QueryStatsScope& operator=(const QueryStatsScope&) = delete;
  ~QueryStatsScope();

 private:
  ActiveQueryStats* previous_;
};

/// RAII backstop for pooled worker threads: captures this thread's ambient
/// observability state — the active query tally AND the trace context — on
/// construction, and restores BOTH unconditionally on destruction.
///
/// QueryStatsScope and TraceSpan already restore their saved parents, but
/// each guards only its own slot, and only along the paths that open one
/// (spans compile to no-ops when tracing is off). A pooled thread that runs
/// one query and is then reused for the next would bleed whatever stale
/// pointer or context the first query left behind — phantom tallies on a
/// dead stack frame, or a second query's spans threaded into the first
/// query's trace id. Declare a ThreadStateGuard FIRST in the query's root
/// scope so it destructs LAST, after every span and stats scope, leaving
/// the worker thread exactly as it was found.
class ThreadStateGuard {
 public:
  ThreadStateGuard();
  ThreadStateGuard(const ThreadStateGuard&) = delete;
  ThreadStateGuard& operator=(const ThreadStateGuard&) = delete;
  ~ThreadStateGuard();

 private:
  ActiveQueryStats* saved_stats_;
  uint64_t saved_trace_id_;
  uint64_t saved_span_id_;
};

/// Immutable record of one completed federated query.
struct QueryStats {
  /// Trace id of the query's root span (0 when tracing was off): the
  /// exemplar linking this record to its tree in the Chrome trace.
  uint64_t trace_id = 0;
  double latency_seconds = 0.0;
  uint64_t probes = 0;
  uint64_t probe_cache_hits = 0;
  uint64_t probe_cache_misses = 0;
  uint64_t rows = 0;
  bool degraded = false;
  bool failed = false;
};

/// Workload-level aggregation plus a bounded log of the slowest queries.
/// Thread-safe; Record() takes one short critical section per query (a
/// query is orders of magnitude more work than the lock).
class QueryLog {
 public:
  /// Slowest-query entries retained (top-K by latency).
  static constexpr size_t kSlowCapacity = 32;

  static QueryLog& Global();

  void Record(const QueryStats& stats);

  struct Aggregate {
    uint64_t queries = 0;
    uint64_t degraded = 0;
    uint64_t failed = 0;
    uint64_t probes = 0;
    uint64_t rows = 0;
    double total_latency_seconds = 0.0;
  };
  Aggregate Totals() const;

  /// The up-to-kSlowCapacity slowest queries, sorted slowest first.
  std::vector<QueryStats> Slowest() const;

  /// JSON array of the slowest queries (one object per query, stable field
  /// order) for telemetry sidecars. `indent` prefixes each line.
  void WriteSlowestJson(std::ostream& os, const std::string& indent) const;

  /// Drops all records and aggregates (tests and per-run sidecars).
  void Clear();

 private:
  QueryLog() = default;

  mutable std::mutex mu_;
  Aggregate totals_;
  /// Min-heap by latency would be overkill at K=32: a sorted insert into a
  /// small vector is cache-friendly and trivially correct.
  std::vector<QueryStats> slowest_;
};

}  // namespace alex::obs

#endif  // ALEX_OBS_QUERY_STATS_H_
