#include "obs/query_stats.h"

#include <algorithm>

#include "obs/trace.h"

namespace alex::obs {

namespace {
thread_local ActiveQueryStats* g_active_query_stats = nullptr;
}  // namespace

ActiveQueryStats* CurrentQueryStats() { return g_active_query_stats; }

QueryStatsScope::QueryStatsScope(ActiveQueryStats* stats)
    : previous_(g_active_query_stats) {
  g_active_query_stats = stats;
}

QueryStatsScope::~QueryStatsScope() { g_active_query_stats = previous_; }

ThreadStateGuard::ThreadStateGuard()
    : saved_stats_(g_active_query_stats),
      saved_trace_id_(TraceRecorder::CurrentContext().trace_id),
      saved_span_id_(TraceRecorder::CurrentContext().span_id) {}

ThreadStateGuard::~ThreadStateGuard() {
  g_active_query_stats = saved_stats_;
  TraceContext& ctx = TraceRecorder::CurrentContext();
  ctx.trace_id = saved_trace_id_;
  ctx.span_id = saved_span_id_;
}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

void QueryLog::Record(const QueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.queries;
  if (stats.degraded) ++totals_.degraded;
  if (stats.failed) ++totals_.failed;
  totals_.probes += stats.probes;
  totals_.rows += stats.rows;
  totals_.total_latency_seconds += stats.latency_seconds;

  // Keep `slowest_` sorted descending by latency; insert only if the query
  // beats the current K-th entry.
  if (slowest_.size() >= kSlowCapacity &&
      stats.latency_seconds <= slowest_.back().latency_seconds) {
    return;
  }
  auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), stats,
      [](const QueryStats& a, const QueryStats& b) {
        return a.latency_seconds > b.latency_seconds;
      });
  slowest_.insert(pos, stats);
  if (slowest_.size() > kSlowCapacity) slowest_.resize(kSlowCapacity);
}

QueryLog::Aggregate QueryLog::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<QueryStats> QueryLog::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_;
}

void QueryLog::WriteSlowestJson(std::ostream& os,
                                const std::string& indent) const {
  const std::vector<QueryStats> slowest = Slowest();
  os << "[";
  bool first = true;
  for (const QueryStats& q : slowest) {
    os << (first ? "\n" : ",\n") << indent << "  {"
       << "\"latency_seconds\": " << q.latency_seconds
       << ", \"trace_id\": " << q.trace_id << ", \"probes\": " << q.probes
       << ", \"probe_cache_hits\": " << q.probe_cache_hits
       << ", \"probe_cache_misses\": " << q.probe_cache_misses
       << ", \"rows\": " << q.rows
       << ", \"degraded\": " << (q.degraded ? "true" : "false")
       << ", \"failed\": " << (q.failed ? "true" : "false") << "}";
    first = false;
  }
  if (!first) os << "\n" << indent;
  os << "]";
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = Aggregate{};
  slowest_.clear();
}

}  // namespace alex::obs
