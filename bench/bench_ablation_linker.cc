// Ablation: "ALEX can work with any initial set of candidate links,
// regardless of how they were generated" (paper Section 2). This bench
// seeds ALEX from three different sources on DBpedia-Lexvo:
//
//   paris   - the PARIS-style probabilistic linker (paper setup)
//   naive   - the exact-label baseline linker
//   silk    - hand-written SILK-style declarative rules (name + date)
//   empty   - no initial links at all (cold start; feedback only arrives
//             once exploration has something to show, so ALEX cannot move
//             without a seed — the paper's reason to start from a linker)
//
// The claim to reproduce: the final quality converges to a similar place
// whenever the seed set is non-empty.

#include <unordered_set>

#include "bench_util.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "feedback/oracle.h"
#include "paris/link_spec.h"
#include "paris/paris.h"

namespace {

using namespace alex;

simulation::EpisodeRecord RunWithSeed(
    const datagen::GeneratedPair& pair,
    const std::vector<paris::ScoredLink>& initial, const char* label,
    std::vector<double>* f_series) {
  core::AlexConfig config;
  config.episode_size = 1000;
  config.max_episodes = 25;
  core::PartitionedAlex alex(&pair.left, &pair.right, config);
  alex.Build();
  alex.InitializeCandidates(initial);
  feedback::Oracle oracle(&pair.truth, 0.0, 99);

  f_series->push_back(
      core::ComputeMetrics(alex.Candidates(), pair.truth).f_measure);
  for (size_t episode = 1; episode <= config.max_episodes; ++episode) {
    for (size_t i = 0; i < config.episode_size; ++i) {
      auto item = oracle.SampleAndJudge(
          alex.NumCandidates(), [&](size_t k) { return alex.CandidateAt(k); });
      if (!item) break;
      alex.ProcessFeedback(*item);
    }
    alex.EndEpisode();
    f_series->push_back(
        core::ComputeMetrics(alex.Candidates(), pair.truth).f_measure);
  }
  const auto metrics = core::ComputeMetrics(alex.Candidates(), pair.truth);
  std::printf("%-8s seeds=%5zu final: P=%.3f R=%.3f F=%.3f candidates=%zu\n",
              label, initial.size(), metrics.precision, metrics.recall,
              metrics.f_measure, alex.NumCandidates());
  simulation::EpisodeRecord record;
  record.metrics = metrics;
  return record;
}

}  // namespace

int main() {
  alex::InitLoggingFromEnv();
  alex::bench::TelemetrySidecar telemetry("bench_ablation_linker");
  Stopwatch generate_watch;
  datagen::GeneratedPair pair =
      datagen::GenerateScenario(datagen::DbpediaLexvo());
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());
  std::printf("Ablation: initial linker choice (DBpedia-Lexvo, GT=%zu)\n\n",
              pair.truth.size());

  paris::ParisLinker paris_linker(&pair.left, &pair.right);
  const auto paris_links = paris_linker.Run();
  const auto naive_links = paris::NaiveLabelLinker(pair.left, pair.right, 0.5);
  // SILK-style hand-written rules: a domain expert would know the two
  // vocabularies and write fuzzy comparisons over the identifying fields.
  const auto spec = paris::ParseLinkSpec(
      "compare http://dbpedia.example.org/ontology/name "
      "http://lexvo.example.org/ontology/label using jaro_winkler\n"
      "compare http://dbpedia.example.org/ontology/name "
      "http://lexvo.example.org/ontology/name using jaro_winkler\n"
      "aggregate max\nthreshold 0.92\n");
  const auto silk_links =
      spec.ok() ? paris::RunLinkSpec(pair.left, pair.right, *spec)
                : std::vector<paris::ScoredLink>{};
  const std::vector<paris::ScoredLink> empty;

  std::vector<double> f_paris, f_naive, f_silk, f_empty;
  const struct {
    const char* label;
    const std::vector<paris::ScoredLink>* links;
    std::vector<double>* series;
  } seeds[] = {{"paris", &paris_links, &f_paris},
               {"naive", &naive_links, &f_naive},
               {"silk", &silk_links, &f_silk},
               {"empty", &empty, &f_empty}};
  for (const auto& seed : seeds) {
    Stopwatch seed_watch;
    RunWithSeed(pair, *seed.links, seed.label, seed.series);
    telemetry.AddPhase(seed.label, seed_watch.ElapsedSeconds());
  }

  std::printf("\n%8s %10s %10s %10s %10s\n", "episode", "paris", "naive",
              "silk", "empty");
  const size_t longest = std::max(
      {f_paris.size(), f_naive.size(), f_silk.size(), f_empty.size()});
  auto at = [](const std::vector<double>& v, size_t i) {
    return v.empty() ? 0.0 : (i < v.size() ? v[i] : v.back());
  };
  for (size_t i = 0; i < longest; ++i) {
    std::printf("%8zu %10.3f %10.3f %10.3f %10.3f\n", i, at(f_paris, i),
                at(f_naive, i), at(f_silk, i), at(f_empty, i));
  }
  return 0;
}
