// Build-phase bench: measures link-space construction wall time and
// candidate counts at 1/2/4/8 partitions, each on one worker and on
// CpuTopology::RecommendedWorkers() workers (AlexConfig::num_threads; the
// pool never exceeds the partition count). Every configuration's finished
// spaces are digested (pairs, feature keys, feature score bits, partition
// by partition) and the two worker counts must agree exactly at each
// partition count — the build is invariant to the thread count — or the
// bench exits 1. Each run also prints the similarity-matrix cells scored
// and the cells the θ-bound sketch filter skipped. The number of allowed CPUs
// is embedded in the JSON so a 1-core CI run is distinguishable from a
// real multi-core measurement. One extra traced 4-partition build is
// written as bench_build_space.trace.json.
//
// Usage: bench_build_space [scenario_name] [reps]   (defaults:
// dbpedia_nytimes — the paper's batch-mode scenario of Figures 2a and 5 —
// and 3 repetitions reporting min-of-N wall times. CI smoke runs
// `bench_build_space dbpedia_nytimes 1`.)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "datagen/scenarios.h"
#include "exec/topology.h"

#include "bench_util.h"

namespace {

struct RunRecord {
  size_t partitions = 0;
  size_t workers = 0;
  double total_seconds = 0.0;
  double max_partition_seconds = 0.0;
  double shared_index_seconds = 0.0;
  alex::core::LinkSpace::BuildStats stats;
  uint64_t digest = 0;
};

/// FNV-1a over every observable bit of the finished spaces: pair keys in
/// canonical order and each pair's feature keys and raw score bits,
/// partition by partition. Two builds digest equal iff they produced
/// bit-identical spaces.
uint64_t DigestSpaces(const alex::core::PartitionedAlex& alex) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    const alex::core::LinkSpace& space = alex.space(p);
    mix(space.size());
    for (alex::core::PairKey pair : space.pairs()) {
      mix(pair);
      for (const alex::core::FeatureValue& f : space.FeaturesOf(pair)) {
        mix(f.key);
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(f.score));
        std::memcpy(&bits, &f.score, sizeof(bits));
        mix(bits);
      }
    }
  }
  return h;
}

RunRecord MeasureBuild(const alex::datagen::GeneratedPair& pair,
                       size_t partitions, size_t workers, size_t reps) {
  // Builds are deterministic; wall-time noise is scheduler/load. Min-of-N
  // is the standard way to report the build's actual cost.
  RunRecord record;
  record.partitions = partitions;
  record.workers = workers;
  for (size_t rep = 0; rep < reps; ++rep) {
    alex::core::AlexConfig config;
    config.num_partitions = partitions;
    config.num_threads = workers;
    alex::core::PartitionedAlex alex(&pair.left, &pair.right, config);
    alex::Stopwatch watch;
    const std::vector<double> seconds = alex.Build();
    const double total = watch.ElapsedSeconds();
    double max_partition = 0.0;
    for (double s : seconds) max_partition = std::max(max_partition, s);
    if (rep == 0 || total < record.total_seconds) {
      record.total_seconds = total;
      record.shared_index_seconds = alex.shared_index_seconds();
    }
    if (rep == 0 || max_partition < record.max_partition_seconds) {
      record.max_partition_seconds = max_partition;
    }
    // Deterministic across reps.
    record.stats = alex.AggregatedSpaceStats();
    record.digest = DigestSpaces(alex);
  }
  return record;
}

void PrintRecord(const RunRecord& r, bool last) {
  std::printf(
      "    {\"partitions\": %zu, \"workers\": %zu, \"total_seconds\": %.4f, "
      "\"max_partition_seconds\": %.4f, \"shared_index_seconds\": %.4f, "
      "\"candidate_pairs\": %llu, \"kept_pairs\": %llu, "
      "\"features_indexed\": %llu, \"cells_scored\": %llu, "
      "\"cells_skipped\": %llu, \"digest\": \"%016llx\"}%s\n",
      r.partitions, r.workers, r.total_seconds,
      r.max_partition_seconds, r.shared_index_seconds,
      static_cast<unsigned long long>(r.stats.candidate_pairs),
      static_cast<unsigned long long>(r.stats.kept_pairs),
      static_cast<unsigned long long>(r.stats.features_indexed),
      static_cast<unsigned long long>(r.stats.cells_scored),
      static_cast<unsigned long long>(r.stats.cells_skipped),
      static_cast<unsigned long long>(r.digest), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alex;
  InitLoggingFromEnv();
  bench::TelemetrySidecar telemetry("bench_build_space");
  const std::string scenario_name =
      argc > 1 ? argv[1] : std::string("dbpedia_nytimes");
  const size_t reps = bench::ParseUintArg(argc, argv, 2, 3, "reps");
  datagen::ScenarioConfig scenario = datagen::ScenarioByName(scenario_name);
  if (scenario.name.empty()) {
    std::fprintf(stderr, "unknown scenario: %s\n", scenario_name.c_str());
    return 1;
  }
  Stopwatch generate_watch;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());

  // One worker first at each partition count, so the speedup denominator
  // comes from the same sweep. The sidecar phase records the full wall
  // time of each partition count (all reps), so the phases stay disjoint
  // and sum to ~the bench wall.
  const exec::CpuTopology& topo = exec::CpuTopology::Detect();
  const std::vector<size_t> partition_counts = {1, 2, 4, 8};
  std::vector<RunRecord> runs;
  bool equivalent = true;
  for (size_t partitions : partition_counts) {
    Stopwatch watch;
    const RunRecord single = MeasureBuild(pair, partitions, 1, reps);
    const RunRecord multi =
        MeasureBuild(pair, partitions, topo.RecommendedWorkers(), reps);
    if (multi.digest != single.digest) {
      equivalent = false;
      std::fprintf(stderr,
                   "digest mismatch at %zu partitions: %zu workers produced "
                   "%016llx, 1 worker produced %016llx\n",
                   partitions, multi.workers,
                   static_cast<unsigned long long>(multi.digest),
                   static_cast<unsigned long long>(single.digest));
    }
    telemetry.AddPhase("build_p" + std::to_string(partitions),
                       watch.ElapsedSeconds());
    telemetry.AddField(
        "speedup_workers_p" + std::to_string(partitions),
        single.total_seconds / std::max(multi.total_seconds, 1e-12));
    runs.push_back(single);
    runs.push_back(multi);
  }
  telemetry.AddField("topology_equivalent",
                     static_cast<uint64_t>(equivalent ? 1 : 0));

  // One extra traced 4-partition build; the sidecar writes it out as
  // bench_build_space.trace.json (Chrome trace_event / Perfetto format).
  obs::TraceRecorder::Global().SetEnabled(true);
  Stopwatch traced_watch;
  MeasureBuild(pair, 4, topo.RecommendedWorkers(), /*reps=*/1);
  telemetry.AddPhase("traced_p4", traced_watch.ElapsedSeconds());
  obs::TraceRecorder::Global().SetEnabled(false);

  std::printf("{\n");
  std::printf("  \"bench\": \"build_space\",\n");
  std::printf("  \"scenario\": \"%s\",\n", scenario.name.c_str());
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(scenario.seed));
  std::printf("  \"left_entities\": %zu,\n", pair.left.num_entities());
  std::printf("  \"right_entities\": %zu,\n", pair.right.num_entities());
  std::printf("  \"topology\": {\"cores\": %zu},\n", topo.num_cpus());
  std::printf("  \"topology_runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintRecord(runs[i], /*last=*/i + 1 == runs.size());
  }
  std::printf("  ],\n");
  std::printf("  \"equivalent\": %s\n", equivalent ? "true" : "false");
  std::printf("}\n");
  return equivalent ? 0 : 1;
}
