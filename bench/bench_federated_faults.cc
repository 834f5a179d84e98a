// Fault-tolerance sweep for the federated engine: the same FedBench-style
// workload (right-side attributes reachable only through owl:sameAs links)
// is executed against an endpoint stack whose right-hand endpoint degrades
// scenario by scenario — healthy, slow, flaky, hard-down — behind the
// retry/breaker decorator. Everything is deterministic: faults come from
// seeded Rngs and all latency/backoff/deadline time flows through a SimClock
// (virtual seconds, zero wall sleeps).
//
// Reported per scenario (JSON): workload outcomes (answered / degraded /
// failed / rows), the provenance links still observed (what ALEX's feedback
// loop would keep learning from), virtual time consumed, and the delta of
// the fed.* metrics (retries, timeouts, breaker opens/trips, attempt-latency
// histogram) over the scenario.
//
// Usage: bench_federated_faults [queries] [seed]   (defaults: 200, 7).

#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "datagen/scenarios.h"
#include "federation/circuit_breaker.h"
#include "federation/endpoint.h"
#include "federation/fault_injection.h"
#include "federation/federated_engine.h"
#include "federation/resilient_endpoint.h"
#include "obs/metrics.h"
#include "simulation/query_workload.h"

#include "bench_util.h"

namespace {

using namespace alex;

struct ScenarioResult {
  std::string name;
  simulation::WorkloadRunStats stats;
  double virtual_seconds = 0.0;
  obs::MetricsSnapshot delta;
};

ScenarioResult RunScenario(const std::string& name,
                           const fed::FaultProfile& right_profile,
                           const datagen::GeneratedPair& pair,
                           const fed::LinkIndex& links,
                           const simulation::FederatedWorkload& workload,
                           uint64_t seed) {
  SimClock clock;
  fed::Endpoint left(&pair.left);
  fed::Endpoint right(&pair.right);
  // The left endpoint stays healthy in every scenario: degradation should
  // shrink answers, never erase the queries the surviving side can answer.
  // It still has a small realistic latency — that is what moves virtual time
  // between right-side probes, letting breaker cooldowns actually elapse
  // mid-scenario instead of freezing the breaker open forever.
  fed::FaultProfile left_profile = fed::FaultProfile::Healthy();
  left_profile.base_latency_seconds = 0.002;
  fed::FaultInjectedEndpoint faulty_left(&left, left_profile, seed * 2 + 1,
                                         &clock);
  fed::FaultInjectedEndpoint faulty_right(&right, right_profile, seed * 2 + 2,
                                          &clock);

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_seconds = 0.05;
  retry.max_backoff_seconds = 1.0;
  retry.attempt_timeout_seconds = 1.0;
  fed::CircuitBreakerConfig breaker;
  fed::ResilientEndpoint resilient_left(&faulty_left, retry, breaker,
                                        seed * 2 + 3, &clock);
  fed::ResilientEndpoint resilient_right(&faulty_right, retry, breaker,
                                         seed * 2 + 4, &clock);

  fed::FederatedEngine engine(&resilient_left, &resilient_right, &links);
  engine.SetQueryDeadline(&clock, /*deadline_seconds=*/10.0);

  ScenarioResult result;
  result.name = name;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const double start = clock.NowSeconds();
  // 50ms of client think time between queries: enough inter-arrival gap for
  // breaker cooldowns to elapse, so flaky scenarios show trip/recover cycles
  // instead of freezing open after the first trip.
  simulation::WorkloadExecOptions options;
  options.clock = &clock;
  options.think_seconds = 0.05;
  result.stats =
      simulation::ExecuteFederatedWorkload(engine, workload, options);
  result.virtual_seconds = clock.NowSeconds() - start;
  result.delta = obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  return result;
}

void PrintScenario(const ScenarioResult& r, bool last) {
  std::printf("    {\"scenario\": \"%s\",\n", EscapeJson(r.name).c_str());
  std::printf(
      "     \"total\": %zu, \"answered\": %zu, \"degraded\": %zu, "
      "\"failed\": %zu, \"rows\": %zu, \"links_observed\": %zu,\n",
      r.stats.total, r.stats.answered, r.stats.degraded, r.stats.failed,
      r.stats.rows, r.stats.links_observed.size());
  std::printf("     \"virtual_seconds\": %.3f,\n", r.virtual_seconds);
  std::printf("     \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : r.delta.counters) {
    if (name.rfind("fed.", 0) != 0 || value == 0) continue;
    std::printf("%s\"%s\": %llu", first ? "" : ", ",
                EscapeJson(name).c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  auto hist = r.delta.histograms.find("fed.attempt_seconds");
  if (hist != r.delta.histograms.end() && hist->second.count > 0) {
    std::printf("%s\"fed.attempt_seconds.count\": %llu, "
                "\"fed.attempt_seconds.mean\": %.4f",
                first ? "" : ", ",
                static_cast<unsigned long long>(hist->second.count),
                hist->second.Mean());
  }
  std::printf("}}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  InitLoggingFromEnv();
  bench::TelemetrySidecar telemetry("bench_federated_faults");
  const size_t num_queries = bench::ParseUintArg(argc, argv, 1, 200, "queries");
  const uint64_t seed = bench::ParseUintArg(argc, argv, 2, 7, "seed");

  Stopwatch generate_watch;
  const datagen::ScenarioConfig scenario = datagen::DbpediaNytimes();
  const datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);
  const fed::LinkIndex links =
      simulation::LinksFromPairs(pair, pair.truth.AsVector());
  const simulation::FederatedWorkload workload =
      simulation::MakeFederatedWorkload(pair, num_queries, 424242);
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());

  const struct {
    const char* name;
    fed::FaultProfile profile;
  } scenarios[] = {
      {"healthy", fed::FaultProfile::Healthy()},
      {"slow", fed::FaultProfile::Slow()},
      {"flaky", fed::FaultProfile::Flaky()},
      {"one_endpoint_down", fed::FaultProfile::Down()},
  };

  std::vector<ScenarioResult> results;
  for (const auto& s : scenarios) {
    Stopwatch watch;
    results.push_back(
        RunScenario(s.name, s.profile, pair, links, workload, seed));
    telemetry.AddPhase(s.name, watch.ElapsedSeconds());
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"federated_faults\",\n");
  std::printf("  \"queries\": %zu,\n", workload.queries.size());
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::printf("  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    PrintScenario(results[i], /*last=*/i + 1 == results.size());
  }
  std::printf("  ]\n}\n");
  return 0;
}
