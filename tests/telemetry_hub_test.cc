// TelemetryHub tests: deterministic SimClock-driven sampling (no wall
// sleeps anywhere), SLO evaluation against per-interval histogram deltas,
// error-budget burn over a rolling window, a p99 breach on the federated
// query-latency histogram, and the JSON / Prometheus exports. SimClock
// itself is tested here too, as the hub's virtual time source.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/telemetry_hub.h"

namespace alex::obs {
namespace {

TEST(SimClockTest, SleepAdvancesVirtualTimeOnly) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 0.0);
  clock.SleepSeconds(30.0);  // Would be a real half-minute on SteadyClock.
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 30.0);
  clock.SleepSeconds(-5.0);  // Negative sleeps are no-ops, not time travel.
  clock.SleepSeconds(0.0);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 30.0);
  clock.AdvanceSeconds(0.5);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 30.5);
}

TEST(TelemetryHubTest, FirstSampleAlwaysTakenThenIntervalGates) {
  SimClock clock;
  TelemetryHub hub(&clock, /*interval_seconds=*/10.0);
  EXPECT_TRUE(hub.MaybeSample());   // First call always samples.
  EXPECT_FALSE(hub.MaybeSample());  // No time has passed.
  clock.AdvanceSeconds(5.0);
  EXPECT_FALSE(hub.MaybeSample());  // Under the interval.
  clock.AdvanceSeconds(5.0);
  EXPECT_TRUE(hub.MaybeSample());   // Interval elapsed.
  EXPECT_EQ(hub.sample_count(), 2u);
  hub.ForceSample();                // Unconditional.
  EXPECT_EQ(hub.sample_count(), 3u);
}

TEST(TelemetryHubTest, SampleRingDropsOldestBeyondMaxSamples) {
  SimClock clock;
  TelemetryHub hub(&clock, 1.0, /*max_samples=*/3);
  for (int i = 0; i < 6; ++i) {
    hub.ForceSample();
    clock.AdvanceSeconds(1.0);
  }
  const std::vector<TelemetrySample> samples = hub.Samples();
  ASSERT_EQ(samples.size(), 3u);
  // The oldest timestamps were dropped; the newest three survive in order.
  EXPECT_DOUBLE_EQ(samples[0].t_seconds, 3.0);
  EXPECT_DOUBLE_EQ(samples[2].t_seconds, 5.0);
}

TEST(TelemetryHubTest, SamplesCarryRegistryDeltasNotCumulatives) {
  SimClock clock;
  Counter& counter =
      MetricsRegistry::Global().counter("obs_test.hub.delta_counter");
  counter.Add(100);  // Pre-hub activity must not leak into later deltas.

  TelemetryHub hub(&clock, 1.0);
  hub.ForceSample();  // Baseline.
  counter.Add(7);
  clock.AdvanceSeconds(1.0);
  hub.ForceSample();

  const std::vector<TelemetrySample> samples = hub.Samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1].delta.counters.at("obs_test.hub.delta_counter"), 7u);
}

TEST(TelemetryHubTest, SloSkipsIntervalsWithNoTraffic) {
  SimClock clock;
  MetricsRegistry::Global().histogram("obs_test.hub.idle_hist", {0.1, 1.0});
  TelemetryHub hub(&clock, 1.0);
  SloConfig slo;
  slo.name = "idle_p99";
  slo.histogram = "obs_test.hub.idle_hist";
  slo.target_seconds = 0.5;
  hub.AddSlo(slo);

  hub.ForceSample();
  clock.AdvanceSeconds(1.0);
  hub.ForceSample();  // No observations in the interval.

  const std::vector<TelemetrySample> samples = hub.Samples();
  ASSERT_EQ(samples.size(), 2u);
  ASSERT_EQ(samples[1].slos.size(), 1u);
  EXPECT_FALSE(samples[1].slos[0].evaluated);
  EXPECT_FALSE(samples[1].slos[0].breached);
  EXPECT_EQ(hub.breach_count(), 0u);
}

TEST(TelemetryHubTest, SustainedBreachesExhaustErrorBudget) {
  SimClock clock;
  Histogram& hist =
      MetricsRegistry::Global().histogram("obs_test.hub.burn_hist",
                                          {0.01, 0.1, 1.0});
  TelemetryHub hub(&clock, 1.0);
  SloConfig slo;
  slo.name = "burn_p99";
  slo.histogram = "obs_test.hub.burn_hist";
  slo.quantile = 0.99;
  slo.target_seconds = 0.01;      // Everything below breaches it.
  slo.burn_window_seconds = 10.0;
  slo.budget_fraction = 0.1;      // >10% of intervals in breach = exhausted.
  hub.AddSlo(slo);
  hub.ForceSample();  // Baseline.

  const uint64_t breaches_before = hub.breach_count();
  for (int i = 0; i < 5; ++i) {
    hist.Observe(0.5);  // p99 of the interval = well above 10ms.
    clock.AdvanceSeconds(1.0);
    hub.ForceSample();
  }
  EXPECT_EQ(hub.breach_count() - breaches_before, 5u);

  const std::vector<TelemetrySample> samples = hub.Samples();
  const SloSample& last = samples.back().slos[0];
  EXPECT_TRUE(last.evaluated);
  EXPECT_TRUE(last.breached);
  EXPECT_GT(last.observed_seconds, slo.target_seconds);
  // Every evaluated interval in the window breached.
  EXPECT_DOUBLE_EQ(last.burn_rate, 1.0);
  EXPECT_TRUE(last.budget_exhausted);
}

TEST(TelemetryHubTest, BreachesFeedTheRegistryBreachCounter) {
  SimClock clock;
  Histogram& hist = MetricsRegistry::Global().histogram(
      "obs_test.hub.counter_hist", {0.01, 1.0});
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  TelemetryHub hub(&clock, 1.0);
  SloConfig slo;
  slo.name = "counter_p50";
  slo.histogram = "obs_test.hub.counter_hist";
  slo.quantile = 0.5;
  slo.target_seconds = 0.001;
  hub.AddSlo(slo);
  hub.ForceSample();
  hist.Observe(0.9);
  clock.AdvanceSeconds(1.0);
  hub.ForceSample();

  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("obs.slo_breaches"), 1u);
}

TEST(TelemetryHubTest, DetectsP99BreachOnFederatedQueryLatency) {
  // Slow federated queries must surface as a deterministic p99 SLO breach
  // on the histogram FederatedEngine records query latency into. The test
  // observes the latencies itself, one 0.2 s query per virtual second, so
  // the timeline does not depend on how fast this machine runs a query.
  SimClock clock;
  Histogram& query_seconds =
      MetricsRegistry::Global().histogram("fed.query_seconds");
  TelemetryHub hub(&clock, /*interval_seconds=*/1.0);
  SloConfig slo;
  slo.name = "fed_query_p99";
  slo.histogram = "fed.query_seconds";
  slo.quantile = 0.99;
  slo.target_seconds = 0.05;  // 50ms target vs 0.2s queries.
  hub.AddSlo(slo);
  hub.ForceSample();  // Baseline excludes other tests' observations.

  for (int i = 0; i < 5; ++i) {
    query_seconds.Observe(0.2);
    clock.AdvanceSeconds(1.0);
    hub.MaybeSample();
  }

  EXPECT_EQ(hub.breach_count(), 5u);
  bool saw_breach = false;
  for (const TelemetrySample& sample : hub.Samples()) {
    for (const SloSample& s : sample.slos) {
      if (s.evaluated && s.breached) {
        saw_breach = true;
        EXPECT_GT(s.observed_seconds, slo.target_seconds);
      }
    }
  }
  EXPECT_TRUE(saw_breach);
}

TEST(TelemetryHubTest, JsonTimelineIsBalancedAndCarriesSlos) {
  SimClock clock;
  Histogram& hist = MetricsRegistry::Global().histogram(
      "obs_test.hub.json_hist", {0.01, 1.0});
  TelemetryHub hub(&clock, 1.0);
  SloConfig slo;
  slo.name = "json_p99";
  slo.histogram = "obs_test.hub.json_hist";
  slo.target_seconds = 0.001;
  hub.AddSlo(slo);
  hub.ForceSample();
  hist.Observe(0.5);
  clock.AdvanceSeconds(1.0);
  hub.ForceSample();

  std::ostringstream os;
  hub.WriteJsonTimeline(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"interval_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"slos\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  EXPECT_NE(json.find("\"json_p99\""), std::string::npos);
  EXPECT_NE(json.find("\"t_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"breached\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TelemetryHubTest, PrometheusExportCarriesSloGauges) {
  SimClock clock;
  Histogram& hist = MetricsRegistry::Global().histogram(
      "obs_test.hub.prom_hist", {0.01, 1.0});
  TelemetryHub hub(&clock, 1.0);
  SloConfig slo;
  slo.name = "prom_p99";
  slo.histogram = "obs_test.hub.prom_hist";
  slo.target_seconds = 0.001;
  hub.AddSlo(slo);
  hub.ForceSample();
  hist.Observe(0.5);
  clock.AdvanceSeconds(1.0);
  hub.ForceSample();

  std::ostringstream os;
  hub.WritePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alex_slo_breached{slo=\"prom_p99\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("alex_slo_burn_rate{slo=\"prom_p99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("alex_slo_observed_seconds{slo=\"prom_p99\"}"),
            std::string::npos);
  // The cumulative registry state rides along, sanitized.
  EXPECT_NE(text.find("obs_test_hub_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace alex::obs
