#include "obs/metrics.h"

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/telemetry.h"

namespace alex::obs {
namespace {

// The registry is process-global and shared across every test in this
// binary; each test uses its own metric names so values never interfere.

TEST(CounterTest, SingleThreadedAddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsFromThreadPoolAllLand) {
  // Hammer one counter from every pool thread; sharded cells must not lose
  // any increment regardless of how threads map onto shards.
  Counter counter;
  ThreadPool pool(8);
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10000;
  ParallelFor(&pool, kTasks, [&counter](size_t) {
    for (int i = 0; i < kAddsPerTask; ++i) counter.Add();
  });
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kTasks) * kAddsPerTask);
}

TEST(GaugeTest, SetAddAndMaxTracking) {
  Gauge gauge;
  gauge.Set(5);
  gauge.UpdateMax(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.MaxValue(), 5);
  gauge.UpdateMax(2);  // Lower than current max: ignored.
  EXPECT_EQ(gauge.MaxValue(), 5);
  gauge.UpdateMax(9);
  EXPECT_EQ(gauge.MaxValue(), 9);
}

TEST(GaugeTest, ConcurrentUpdateMaxKeepsTrueMax) {
  Gauge gauge;
  ThreadPool pool(8);
  constexpr int kTasks = 32;
  ParallelFor(&pool, kTasks, [&gauge](size_t task) {
    const int t = static_cast<int>(task) + 1;
    for (int i = 0; i < 1000; ++i) gauge.UpdateMax(t * 1000 + i);
  });
  EXPECT_EQ(gauge.MaxValue(), kTasks * 1000 + 999);
}

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram histogram({0.001, 0.01, 0.1});
  histogram.Observe(0.0005);  // bucket 0 (<= 1ms)
  histogram.Observe(0.001);   // bucket 0 (bounds are inclusive upper)
  histogram.Observe(0.005);   // bucket 1
  histogram.Observe(0.05);    // bucket 2
  histogram.Observe(5.0);     // +inf bucket
  histogram.Observe(-1.0);    // clamped to 0 -> bucket 0

  const HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 3u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 0.0005 + 0.001 + 0.005 + 0.05 + 5.0, 1e-6);
  EXPECT_GT(snap.Mean(), 0.0);
}

TEST(HistogramTest, ConcurrentObservationsAllCounted) {
  Histogram histogram({0.5});
  ThreadPool pool(8);
  constexpr int kTasks = 32;
  constexpr int kObsPerTask = 5000;
  // Half the observations land below the bound, half above; every task
  // uses the same deterministic split, so the merged buckets are exact.
  ParallelFor(&pool, kTasks, [&histogram](size_t) {
    for (int i = 0; i < kObsPerTask; ++i) {
      histogram.Observe(i % 2 == 0 ? 0.1 : 1.0);
    }
  });
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kTasks) * kObsPerTask);
  EXPECT_EQ(snap.counts[0], static_cast<uint64_t>(kTasks) * kObsPerTask / 2);
  EXPECT_EQ(snap.counts[1], static_cast<uint64_t>(kTasks) * kObsPerTask / 2);
}

TEST(RegistryTest, LookupIsIdempotentAndHandleStable) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.counter("obs_test.idempotent");
  Counter& b = registry.counter("obs_test.idempotent");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
  // ResetForTest zeroes values but must not invalidate the reference.
  registry.ResetForTest();
  EXPECT_EQ(a.Value(), 0u);
  a.Add(1);
  EXPECT_EQ(registry.counter("obs_test.idempotent").Value(), 1u);
}

TEST(RegistryTest, HistogramBoundsFixedByFirstRegistration) {
  // A conflicting re-registration logs an error and returns the original
  // histogram — the ladder never changes underneath existing handles.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& h = registry.histogram("obs_test.fixed_bounds", {1.0, 2.0});
  Histogram& again = registry.histogram("obs_test.fixed_bounds", {9.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.Snapshot().bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, TryHistogramReportsBoundsConflict) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Result<Histogram*> first =
      registry.TryHistogram("obs_test.try_bounds", {1.0, 2.0});
  ASSERT_TRUE(first.ok());

  // Same bounds (even unsorted / duplicated — they normalize): fine, same
  // handle.
  Result<Histogram*> same =
      registry.TryHistogram("obs_test.try_bounds", {2.0, 1.0, 2.0});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*first, *same);

  // Different bounds: loud InvalidArgument naming the metric.
  Result<Histogram*> conflict =
      registry.TryHistogram("obs_test.try_bounds", {5.0});
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(conflict.status().message().find("obs_test.try_bounds"),
            std::string::npos);

  // The conflicting call changed nothing.
  EXPECT_EQ((*first)->Snapshot().bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, BoundsAgnosticLookupNeverConflicts) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& h = registry.histogram("obs_test.agnostic", {1.0});
  Histogram& again = registry.histogram("obs_test.agnostic");
  EXPECT_EQ(&h, &again);
}

TEST(HistogramQuantileTest, InterpolatesLinearlyWithinBucket) {
  // 10 observations spread evenly through the (1.0, 2.0] bucket. Prometheus
  // semantics: rank q*count falls inside that bucket, position interpolated
  // linearly between its bounds.
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) histogram.Observe(1.5);
  const HistogramSnapshot snap = histogram.Snapshot();
  // All mass in bucket (1,2]: the median sits halfway through the bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.5);
  // q=1.0 -> rank 10 of 10 -> top of the bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 2.0);
  // q=0.1 -> rank 1 of 10 -> 10% into the bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.1), 1.1);
}

TEST(HistogramQuantileTest, FirstBucketInterpolatesFromZero) {
  Histogram histogram({2.0, 4.0});
  histogram.Observe(1.0);
  histogram.Observe(1.0);
  const HistogramSnapshot snap = histogram.Snapshot();
  // Both observations land in bucket [0, 2]; the lower edge of the first
  // bucket is 0 by convention. Median: rank = 0.5 * 2 = 1, position 1/2 in
  // the bucket -> 0 + 2 * 0.5 = 1.0.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 2.0);
}

TEST(HistogramQuantileTest, OverflowBucketReturnsHighestFiniteBound) {
  // Observations beyond the last finite bound land in the +Inf bucket; the
  // quantile cannot interpolate there and returns the highest finite bound
  // (Prometheus histogram_quantile behavior).
  Histogram histogram({0.1, 1.0});
  histogram.Observe(50.0);
  histogram.Observe(60.0);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 1.0);
}

TEST(HistogramQuantileTest, EmptyAndClampedInputs) {
  Histogram histogram({1.0});
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.99), 0.0);

  histogram.Observe(0.5);
  const HistogramSnapshot snap = histogram.Snapshot();
  // q outside [0,1] clamps instead of reading out of range.
  EXPECT_DOUBLE_EQ(snap.Quantile(-3.0), snap.Quantile(0.0));
  EXPECT_DOUBLE_EQ(snap.Quantile(7.0), snap.Quantile(1.0));
  // With one observation every quantile resolves to the same rank-1 point.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.01), snap.Quantile(0.99));
}

TEST(HistogramQuantileTest, SkipsEmptyLeadingBuckets) {
  Histogram histogram({0.001, 0.01, 0.1, 1.0});
  for (int i = 0; i < 4; ++i) histogram.Observe(0.05);  // bucket (0.01, 0.1]
  const HistogramSnapshot snap = histogram.Snapshot();
  const double p50 = snap.Quantile(0.5);
  EXPECT_GT(p50, 0.01);
  EXPECT_LE(p50, 0.1);
}

TEST(RegistryTest, SnapshotMergeIsDeterministic) {
  // Two snapshots taken after identical activity compare equal, and the
  // delta between them is empty activity — regardless of which threads did
  // the work (shards merge on snapshot).
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.counter("obs_test.determinism.counter");
  Histogram& histogram =
      registry.histogram("obs_test.determinism.hist", {0.5});

  ThreadPool pool(4);
  ParallelFor(&pool, 16, [&counter, &histogram](size_t) {
    for (int i = 0; i < 1000; ++i) {
      counter.Add();
      histogram.Observe(0.1);
    }
  });

  const MetricsSnapshot first = registry.Snapshot();
  const MetricsSnapshot second = registry.Snapshot();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.counters.at("obs_test.determinism.counter") % 16000, 0u);

  const MetricsSnapshot delta = second.DeltaSince(first);
  EXPECT_EQ(delta.counters.at("obs_test.determinism.counter"), 0u);
  EXPECT_EQ(delta.histograms.at("obs_test.determinism.hist").count, 0u);
}

TEST(RegistryTest, DeltaSinceSubtractsCountersAndHistograms) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.counter("obs_test.delta.counter");
  Histogram& histogram = registry.histogram("obs_test.delta.hist", {1.0});
  Gauge& gauge = registry.gauge("obs_test.delta.gauge");

  counter.Add(10);
  histogram.Observe(0.5);
  gauge.Set(3);
  const MetricsSnapshot before = registry.Snapshot();

  counter.Add(5);
  histogram.Observe(0.5);
  histogram.Observe(2.0);
  gauge.Set(7);
  const MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counters.at("obs_test.delta.counter"), 5u);
  const HistogramSnapshot& h = delta.histograms.at("obs_test.delta.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_NEAR(h.sum, 2.5, 1e-6);
  // Gauges are point-in-time: the delta keeps the current value.
  EXPECT_EQ(delta.gauges.at("obs_test.delta.gauge"), 7);
}

TEST(RegistryTest, DeltaSinceSaturatesOnCounterReset) {
  // A counter reset between snapshots (restart, ResetForTest) used to make
  // the unsigned subtraction wrap to ~2^64; the delta must saturate at 0.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.counter("obs_test.reset.counter");
  Histogram& histogram = registry.histogram("obs_test.reset.hist", {1.0});

  counter.Add(100);
  histogram.Observe(0.5);
  histogram.Observe(0.5);
  const MetricsSnapshot before = registry.Snapshot();

  counter.Reset();
  histogram.Reset();
  counter.Add(3);  // Post-reset activity smaller than the old value.
  histogram.Observe(0.5);
  const MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counters.at("obs_test.reset.counter"), 0u);
  const HistogramSnapshot& h = delta.histograms.at("obs_test.reset.hist");
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_GE(h.sum, 0.0);
}

TEST(ScopedTimerTest, ObservesIntoHistogramAndSink) {
  Histogram histogram({1.0});
  double sink = 0.0;
  { ScopedTimer timer(histogram, &sink); }
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(sink, 0.0);
  EXPECT_NEAR(snap.sum, sink, 1e-9);
}

TEST(RunTelemetryTest, AddPhaseAccumulatesByName) {
  RunTelemetry telemetry;
  telemetry.AddPhase("explore", 1.0);
  telemetry.AddPhase("evaluate", 0.5);
  telemetry.AddPhase("explore", 2.0);
  ASSERT_EQ(telemetry.phases.size(), 2u);
  EXPECT_EQ(telemetry.phases[0].first, "explore");
  EXPECT_DOUBLE_EQ(telemetry.phases[0].second, 3.0);
  EXPECT_DOUBLE_EQ(telemetry.PhaseSecondsTotal(), 3.5);
}

TEST(RunTelemetryTest, JsonAndCsvCarryPhasesAndMetrics) {
  RunTelemetry telemetry;
  telemetry.wall_seconds = 2.25;
  telemetry.AddPhase("build_space", 1.5);
  telemetry.metrics.counters["obs_test.export.counter"] = 12;
  telemetry.metrics.gauges["obs_test.export.gauge"] = -3;
  HistogramSnapshot h;
  h.bounds = {0.5};
  h.counts = {2, 1};
  h.count = 3;
  h.sum = 1.75;
  telemetry.metrics.histograms["obs_test.export.hist"] = h;

  std::ostringstream json;
  telemetry.WriteJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"build_space\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.export.counter\": 12"), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.export.gauge\": -3"), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.export.hist\""), std::string::npos);
  EXPECT_NE(text.find("\"inf\""), std::string::npos);  // +inf bucket.

  std::ostringstream csv;
  telemetry.WriteCsv(csv);
  EXPECT_NE(csv.str().find("counter,obs_test.export.counter,12"),
            std::string::npos);
  EXPECT_NE(csv.str().find("phase,build_space,"), std::string::npos);
}

TEST(RunTelemetryTest, HostileNamesAreEscapedInJson) {
  // Metric and phase names flow into JSON keys verbatim-ish; a name with a
  // quote or newline used to produce unparseable output. Every key now goes
  // through EscapeJson.
  RunTelemetry telemetry;
  telemetry.AddPhase("phase \"zero\"\nline2", 1.0);
  telemetry.metrics.counters["evil\"name\\with\tstuff"] = 7;
  telemetry.metrics.gauges["g\"auge"] = 1;
  telemetry.metrics.gauge_maxes["g\"auge"] = 2;
  HistogramSnapshot h;
  h.counts = {1};
  h.count = 1;
  h.sum = 0.5;
  telemetry.metrics.histograms["h\"ist"] = h;

  std::ostringstream json;
  telemetry.WriteJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"phase \\\"zero\\\"\\nline2\""), std::string::npos);
  EXPECT_NE(text.find("\"evil\\\"name\\\\with\\tstuff\": 7"),
            std::string::npos);
  EXPECT_NE(text.find("\"g\\\"auge\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"g\\\"auge.max\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"h\\\"ist\""), std::string::npos);
  // No raw control characters survive anywhere in the document.
  for (char c : text) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte in JSON output";
  }
}

TEST(PrometheusTest, SanitizeMetricNameMapsToLegalCharset) {
  EXPECT_EQ(SanitizeMetricName("fed.probe_cache_hits"),
            "fed_probe_cache_hits");
  EXPECT_EQ(SanitizeMetricName("rdf.block_cache.hits"),
            "rdf_block_cache_hits");
  EXPECT_EQ(SanitizeMetricName("already_legal:name"), "already_legal:name");
  EXPECT_EQ(SanitizeMetricName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName("spaces and-dashes"), "spaces_and_dashes");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  // Every output conforms to [a-zA-Z_:][a-zA-Z0-9_:]*.
  for (const char* hostile :
       {"a.b", "1", "-", "\"quote\"", "üñïçödé", "x{label=\"v\"}"}) {
    const std::string out = SanitizeMetricName(hostile);
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(out[0])) ||
                out[0] == '_' || out[0] == ':')
        << out;
    for (char c : out) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "illegal char in '" << out << "'";
    }
  }
}

TEST(PrometheusTest, TextExpositionIsWellFormed) {
  MetricsSnapshot snapshot;
  snapshot.counters["fed.probe_cache_hits"] = 42;
  snapshot.gauges["sim.active_episodes"] = 3;
  snapshot.gauge_maxes["sim.active_episodes"] = 9;
  HistogramSnapshot h;
  h.bounds = {0.001, 0.01, 0.1};
  h.counts = {5, 3, 1, 2};  // Last slot is the +Inf bucket.
  h.count = 11;
  h.sum = 0.75;
  snapshot.histograms["fed.query_seconds"] = h;

  std::ostringstream os;
  WritePrometheusText(snapshot, os);
  const std::string text = os.str();

  // Counters: sanitized name + _total suffix with a TYPE line.
  EXPECT_NE(text.find("# TYPE fed_probe_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fed_probe_cache_hits_total 42"), std::string::npos);

  // Gauges carry their value and a _max companion.
  EXPECT_NE(text.find("sim_active_episodes 3"), std::string::npos);
  EXPECT_NE(text.find("sim_active_episodes_max 9"), std::string::npos);

  // Histogram buckets are cumulative and end with le="+Inf" == _count.
  EXPECT_NE(text.find("# TYPE fed_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_bucket{le=\"0.001\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_bucket{le=\"0.01\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_bucket{le=\"0.1\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_bucket{le=\"+Inf\"} 11"),
            std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_count 11"), std::string::npos);
  EXPECT_NE(text.find("fed_query_seconds_sum 0.75"), std::string::npos);

  // Self-lint: every non-comment line is `name{labels} value` or
  // `name value`, with a legal metric name.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_' || name[0] == ':')
        << line;
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    // The line ends in a parseable number.
    const size_t value_start = line.find_last_of(' ');
    ASSERT_NE(value_start, std::string::npos) << line;
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(line.substr(value_start + 1), &parsed); })
        << line;
  }
}

}  // namespace
}  // namespace alex::obs
