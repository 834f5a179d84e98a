// Causal-tracing integration tests: one federated query — plan execution,
// pattern probes, probe-cache lookups — exports as one connected span tree
// under the query root's trace id. These tests drive the real endpoint
// stack (probe cache over in-process endpoints) with the global recorder
// enabled and reconstruct the tree from the exported events.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "obs/query_stats.h"
#include "obs/trace.h"

namespace alex::obs {
namespace {

using fed::CachingEndpoint;
using fed::Endpoint;
using fed::FederatedEngine;
using rdf::Term;

constexpr char kSpanningQuery[] =
    "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";

class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
    QueryLog::Global().Clear();
    left_.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
    left_.AddLiteralTriple("http://l/acme", "http://l/name",
                           Term::Literal("Acme"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                            Term::Literal("Belcaster"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("Acme Corporation"));
    links_.Add("http://l/acme", "http://r/acme-corp");
    left_ep_ = std::make_unique<Endpoint>(&left_);
    right_ep_ = std::make_unique<Endpoint>(&right_);
  }

  void TearDown() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
    QueryLog::Global().Clear();
  }

  /// Builds the stack (probe cache -> endpoint) and an engine on top of it.
  void BuildStack() {
    cached_left_ = std::make_unique<CachingEndpoint>(left_ep_.get());
    cached_right_ = std::make_unique<CachingEndpoint>(right_ep_.get());
    engine_ = std::make_unique<FederatedEngine>(
        cached_left_.get(), cached_right_.get(), &links_);
  }

  rdf::Dataset left_{"hr"};
  rdf::Dataset right_{"companies"};
  fed::LinkIndex links_;
  std::unique_ptr<Endpoint> left_ep_;
  std::unique_ptr<Endpoint> right_ep_;
  std::unique_ptr<CachingEndpoint> cached_left_;
  std::unique_ptr<CachingEndpoint> cached_right_;
  std::unique_ptr<FederatedEngine> engine_;
};

#ifdef ALEX_TRACING_ENABLED

TEST_F(TraceContextTest, NestedSpansInheritTraceAndParentIds) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  uint64_t outer_trace = 0, outer_span = 0, inner_span = 0;
  {
    TraceSpan outer("test", "outer");
    outer_trace = outer.trace_id();
    outer_span = outer.span_id();
    {
      TraceSpan inner("test", "inner");
      inner_span = inner.span_id();
      EXPECT_EQ(inner.trace_id(), outer_trace);
    }
    // The thread context is restored after inner closes.
    EXPECT_EQ(TraceRecorder::CurrentContext().span_id, outer_span);
  }
  EXPECT_EQ(TraceRecorder::CurrentContext().trace_id, 0u);
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, TraceEvent> by_name;
  for (const TraceEvent& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name.at("outer").parent_span_id, 0u);
  EXPECT_EQ(by_name.at("inner").parent_span_id, outer_span);
  EXPECT_EQ(by_name.at("inner").trace_id, outer_trace);
  EXPECT_EQ(by_name.at("inner").span_id, inner_span);
}

TEST_F(TraceContextTest, RootSpanMintsFreshTraceEvenInsideOpenSpan) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  uint64_t outer_trace = 0, root_trace = 0;
  {
    TraceSpan outer("test", "outer");
    outer_trace = outer.trace_id();
    {
      TraceSpan root("test", "root", TraceSpan::Root::kNewTrace);
      root_trace = root.trace_id();
      EXPECT_NE(root_trace, outer_trace);
      // Children inside the root join the new trace.
      TraceSpan child("test", "child");
      EXPECT_EQ(child.trace_id(), root_trace);
    }
    // Back outside, the old trace is ambient again.
    EXPECT_EQ(TraceRecorder::CurrentContext().trace_id, outer_trace);
  }
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "root") {
      // A root reports no parent even though an outer span was open.
      EXPECT_EQ(e.parent_span_id, 0u);
      EXPECT_EQ(e.trace_id, root_trace);
    }
  }
}

TEST_F(TraceContextTest, EachFederatedQueryMintsItsOwnTrace) {
  BuildStack();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  for (int i = 0; i < 3; ++i) {
    auto r = engine_->ExecuteText(kSpanningQuery);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  recorder.SetEnabled(false);

  std::set<uint64_t> root_traces;
  for (const TraceEvent& e : recorder.Events()) {
    if (std::string(e.name) == "FederatedEngine::Execute") {
      EXPECT_NE(e.trace_id, 0u);
      EXPECT_EQ(e.parent_span_id, 0u);
      root_traces.insert(e.trace_id);
    }
  }
  EXPECT_EQ(root_traces.size(), 3u);
}

TEST_F(TraceContextTest, QueryTreeIsConnectedAcrossTheWholeStack) {
  // Run traced queries against the stack and reconstruct the tree. At
  // least 95% of probe and cache spans must carry the trace id of a query
  // root and resolve a parent chain that terminates at that root.
  // In-process this should in fact be 100%.
  BuildStack();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  for (int i = 0; i < 8; ++i) {
    auto r = engine_->ExecuteText(kSpanningQuery);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Events();
  std::set<uint64_t> root_traces;
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) {
    if (e.span_id != 0) by_span[e.span_id] = &e;
    if (std::string(e.name) == "FederatedEngine::Execute") {
      root_traces.insert(e.trace_id);
    }
  }
  ASSERT_FALSE(root_traces.empty());

  // Every span with a resolvable parent chain ending at a query root is
  // "linked"; count linkage over the instrumentation spans of interest.
  auto linked_to_root = [&](const TraceEvent& e) {
    if (root_traces.count(e.trace_id) == 0) return false;
    const TraceEvent* cursor = &e;
    for (int depth = 0; depth < 64; ++depth) {
      if (cursor->parent_span_id == 0) {
        return std::string(cursor->name) == "FederatedEngine::Execute";
      }
      auto it = by_span.find(cursor->parent_span_id);
      if (it == by_span.end()) return false;
      cursor = it->second;
    }
    return false;
  };

  const std::set<std::string> kStackSpans = {"pattern_probe",
                                             "CachingEndpoint::Probe"};
  size_t stack_spans = 0, linked = 0, probes = 0, cache_spans = 0;
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (kStackSpans.count(name) == 0) continue;
    ++stack_spans;
    if (name == "pattern_probe") ++probes;
    if (name == "CachingEndpoint::Probe") ++cache_spans;
    if (linked_to_root(e)) ++linked;
  }
  ASSERT_GT(probes, 0u) << "no pattern_probe spans recorded";
  ASSERT_GT(cache_spans, 0u) << "no probe-cache spans recorded";
  EXPECT_GE(static_cast<double>(linked),
            0.95 * static_cast<double>(stack_spans))
      << linked << "/" << stack_spans << " spans linked to a query root";
}

TEST_F(TraceContextTest, QueryLogCarriesTraceIdExemplarsAndTallies) {
  BuildStack();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  recorder.SetEnabled(false);

  const QueryLog::Aggregate totals = QueryLog::Global().Totals();
  EXPECT_EQ(totals.queries, 1u);
  EXPECT_GT(totals.probes, 0u);
  EXPECT_EQ(totals.rows, r->rows.size());

  const std::vector<QueryStats> slowest = QueryLog::Global().Slowest();
  ASSERT_EQ(slowest.size(), 1u);
  const QueryStats& q = slowest.front();
  EXPECT_NE(q.trace_id, 0u);
  EXPECT_GT(q.probes, 0u);
  EXPECT_FALSE(q.failed);
  // The exemplar matches the root span the recorder retained.
  bool found_root = false;
  for (const TraceEvent& e : recorder.Events()) {
    if (e.trace_id == q.trace_id &&
        std::string(e.name) == "FederatedEngine::Execute") {
      found_root = true;
    }
  }
  EXPECT_TRUE(found_root);
}

TEST_F(TraceContextTest, UntracedQueriesRecordZeroTraceIdExemplar) {
  BuildStack();
  // Recorder stays disabled: stats still flow, exemplar is 0.
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  const std::vector<QueryStats> slowest = QueryLog::Global().Slowest();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest.front().trace_id, 0u);
  EXPECT_GT(slowest.front().probes, 0u);
  EXPECT_TRUE(TraceRecorder::Global().Events().empty());
}

// Regression for thread-state bleed across pooled workers: a federated
// query run on a pool thread must leave NO residue — neither the active
// query-stats pointer nor the ambient trace context — so the next query
// the same worker picks up starts from a clean slate (ThreadStateGuard in
// FederatedEngine::Instrumented is the backstop). Before the guard, a
// worker that died mid-query or an endpoint that leaked a span left the
// thread-locals dirty and the NEXT query on that worker parented its spans
// into the previous query's trace.
TEST_F(TraceContextTest, PooledWorkerStartsEachQueryWithCleanThreadState) {
  BuildStack();
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetEnabled(true);

  ThreadPool pool(1);  // ONE thread: both queries reuse the same thread.
  std::atomic<bool> residue{false};
  auto run_query = [&](size_t) {
    // Clean slate before the query...
    if (CurrentQueryStats() != nullptr) residue = true;
    if (TraceRecorder::CurrentContext().trace_id != 0) residue = true;
    auto r = engine_->ExecuteText(kSpanningQuery);
    if (!r.ok()) residue = true;
    // ...and after it: the root scope restored everything on exit.
    if (CurrentQueryStats() != nullptr) residue = true;
    if (TraceRecorder::CurrentContext().trace_id != 0) residue = true;
  };
  ParallelFor(&pool, 2, run_query);
  recorder.SetEnabled(false);
  EXPECT_FALSE(residue.load());

  // The two pooled queries minted distinct root traces — no id leaked from
  // the first into the second.
  std::set<uint64_t> root_traces;
  for (const TraceEvent& e : recorder.Events()) {
    if (std::string(e.name) == "FederatedEngine::Execute") {
      EXPECT_EQ(e.parent_span_id, 0u);
      root_traces.insert(e.trace_id);
    }
  }
  EXPECT_EQ(root_traces.size(), 2u);
}

#else  // !ALEX_TRACING_ENABLED

TEST_F(TraceContextTest, TracingCompiledOutLeavesStatsWorking) {
  BuildStack();
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(QueryLog::Global().Totals().queries, 1u);
  EXPECT_TRUE(TraceRecorder::Global().Events().empty());
}

#endif  // ALEX_TRACING_ENABLED

TEST_F(TraceContextTest, QueryStatsScopeNestsAndRestores) {
  EXPECT_EQ(CurrentQueryStats(), nullptr);
  ActiveQueryStats outer;
  {
    QueryStatsScope outer_scope(&outer);
    EXPECT_EQ(CurrentQueryStats(), &outer);
    ActiveQueryStats inner;
    {
      QueryStatsScope inner_scope(&inner);
      EXPECT_EQ(CurrentQueryStats(), &inner);
      CurrentQueryStats()->probes += 2;
    }
    EXPECT_EQ(CurrentQueryStats(), &outer);
    CurrentQueryStats()->probes += 1;
    EXPECT_EQ(inner.probes, 2u);
  }
  EXPECT_EQ(CurrentQueryStats(), nullptr);
  EXPECT_EQ(outer.probes, 1u);
}

TEST_F(TraceContextTest, QueryLogKeepsTopKSlowestSorted) {
  QueryLog& log = QueryLog::Global();
  const size_t total = QueryLog::kSlowCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    QueryStats q;
    q.latency_seconds = static_cast<double>(i);
    q.rows = i;
    log.Record(q);
  }
  const std::vector<QueryStats> slowest = log.Slowest();
  ASSERT_EQ(slowest.size(), QueryLog::kSlowCapacity);
  // Slowest first, and only the top-K latencies survive.
  EXPECT_DOUBLE_EQ(slowest.front().latency_seconds,
                   static_cast<double>(total - 1));
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].latency_seconds, slowest[i].latency_seconds);
  }
  EXPECT_DOUBLE_EQ(slowest.back().latency_seconds,
                   static_cast<double>(total - QueryLog::kSlowCapacity));
  EXPECT_EQ(log.Totals().queries, total);

  std::ostringstream os;
  log.WriteSlowestJson(os, "");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace alex::obs
