// The paper's evaluation: Table 1, Figures 2-11, Section 7.3's execution
// times and the ablations behind its claims. `bench_paper [id ...]` runs
// the named figures in order, or all of them in the paper's order; an
// unknown id lists the valid ids and exits 2. Each figure writes its run
// telemetry to `bench_paper.<id>.telemetry.json` in the working directory.
// A config sweep is one row of PaperFigures(); the other figures are a
// function each.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/link_space.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "feedback/oracle.h"
#include "paris/link_spec.h"
#include "paris/paris.h"
#include "simulation/report.h"

namespace alex::bench {
namespace {

using simulation::ConvergenceEpisode;
using simulation::RunResult;
using simulation::SimulationConfig;
using Labels = std::vector<std::string>;
using Results = std::vector<RunResult>;
using Change = std::function<void(SimulationConfig&)>;
namespace dg = datagen;

/// The default simulation configuration for a figure run.
SimulationConfig MakeConfig(const dg::ScenarioConfig& scenario,
                            size_t episode_size) {
  SimulationConfig config;
  config.scenario = scenario;
  config.alex.episode_size = episode_size;
  return config;
}

/// Prints one run as the paper's quality figures show it: P/R/F per episode
/// and the convergence markers the figures annotate.
void PrintQualityFigure(const char* title, const RunResult& result) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%8s %10s %8s %10s\n", "episode", "precision", "recall",
              "f-measure");
  // A zero-episode run (nothing generated / nothing linked) has no series
  // and no final metrics; say so instead of dereferencing episodes.back().
  if (result.episodes.empty()) std::printf("%8s\n", "(no episodes)");
  for (const auto& r : result.episodes) {
    std::printf("%8zu %10.3f %8.3f %10.3f\n", r.episode, r.metrics.precision,
                r.metrics.recall, r.metrics.f_measure);
  }
  std::printf(
      "relaxed_convergence(<5%% change)=%s strict_convergence=%s "
      "ground_truth=%zu initial_links=%zu new_links_discovered=%zu\n",
      ConvergenceEpisode(result.relaxed_episode).c_str(),
      ConvergenceEpisode(result.converged_episode).c_str(),
      result.episodes.empty() ? 0 : result.episodes.back().metrics.ground_truth,
      result.initial_links, result.new_links_discovered);
}

RunResult Run(const SimulationConfig& config, const std::string& label,
              TelemetrySidecar& telemetry) {
  RunResult result = simulation::Simulation(config).Run();
  telemetry.AddRun(label, result);
  return result;
}

/// One arm of a sweep: its sidecar run label, its change to the figure's
/// base config, and the name stdout shows for it (a quality figure's title
/// or a comparison column; the run label when empty).
struct Arm {
  std::string label;
  Change change = nullptr;
  std::string shown = {};
};

/// A quality-figure arm: the scenario's name labels the run.
Arm Quality(std::string title, dg::ScenarioConfig (*scenario)()) {
  return {scenario().name,
          [scenario](SimulationConfig& c) { c.scenario = scenario(); },
          std::move(title)};
}

/// One comparison table: a row per episode, a column per arm.
struct Series {
  const char* title;
  const char* metric;
  double (*extract)(const simulation::EpisodeRecord&);
  size_t max_episodes = SIZE_MAX;
};

struct Figure {
  const char* id;
  /// Set for a figure that is not a config sweep; the fields below are
  /// then unused.
  void (*custom)(TelemetrySidecar&) = nullptr;
  /// Every arm starts from DBpedia-NYTimes at this episode size; `base`
  /// and then the arm's change modify that.
  size_t episode_size = 1000;
  Change base = nullptr;
  std::vector<Arm> arms = {};
  /// Empty: each arm prints as a quality figure titled by its shown name.
  std::vector<Series> series = {};
  void (*footer)(const Labels& shown, const Results& results) = nullptr;
};

void RunSweep(const Figure& fig, TelemetrySidecar& telemetry) {
  Results results;
  Labels shown;
  for (const Arm& arm : fig.arms) {
    SimulationConfig config =
        MakeConfig(dg::DbpediaNytimes(), fig.episode_size);
    if (fig.base) fig.base(config);
    if (arm.change) arm.change(config);
    results.push_back(Run(config, arm.label, telemetry));
    shown.push_back(arm.shown.empty() ? arm.label : arm.shown);
  }
  std::vector<const RunResult*> runs;
  for (size_t i = 0; i < results.size(); ++i) {
    if (fig.series.empty()) PrintQualityFigure(shown[i].c_str(), results[i]);
    runs.push_back(&results[i]);
  }
  for (const Series& s : fig.series) {
    PrintComparisonFigure(s.title, s.metric, shown, runs, s.extract,
                          s.max_episodes);
  }
  if (fig.footer) fig.footer(shown, results);
}

// Table 1: the synthetic analogs of the paper's data sets, with entity and
// ground-truth-link counts per scenario pair.
void Table1(TelemetrySidecar& telemetry) {
  std::printf(
      "Table 1: data sets used in the experiments (synthetic analogs)\n\n");
  std::printf("%-22s %-14s %-40s %10s %10s %9s %10s\n", "Scenario (pair)",
              "Side", "Field (domains)", "Triples", "Entities", "GT-links",
              "PairSeed");
  for (const dg::ScenarioConfig& config : dg::AllScenarios()) {
    Stopwatch generate_watch;
    dg::GeneratedPair pair = dg::GenerateScenario(config);
    telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());
    const std::string domains = Join(
        std::vector<std::string>(config.domains.begin(), config.domains.end()),
        ",");
    std::printf("%-22s %-14s %-40s %10zu %10zu %9zu %10llu\n",
                config.name.c_str(), pair.left.name().c_str(),
                domains.c_str(), pair.left.num_triples(),
                pair.left.num_entities(), pair.truth.size(),
                static_cast<unsigned long long>(config.seed));
    std::printf("%-22s %-14s %-40s %10zu %10zu %9s %10s\n", "",
                pair.right.name().c_str(), domains.c_str(),
                pair.right.num_triples(), pair.right.num_entities(), "", "");
  }
  std::printf(
      "\nPaper ground-truth sizes for reference: DBpedia-NYTimes 10968, "
      "DBpedia-Drugbank 1514, DBpedia-Lexvo 4364, OpenCyc-NYTimes 2965, "
      "OpenCyc-Drugbank 204, OpenCyc-Lexvo 383, DBpedia-SWDF 461, "
      "OpenCyc-SWDF 110, DBpedia(NBA)-NYT 93, OpenCyc(NBA)-NYT 35, "
      "DBpedia-OpenCyc 41039 (scenarios are scaled ~10x down).\n");
}

// Figure 5: filtering the search space (Sections 6.1 and 7.3): (a) all
// possible links between DBpedia's first partition and NYTimes vs the
// theta-filtered space; (b) that space vs the partition's ground truth.
void Fig5(TelemetrySidecar& telemetry) {
  Stopwatch generate_watch;
  dg::GeneratedPair pair = dg::GenerateScenario(dg::DbpediaNytimes());
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());
  core::AlexConfig config;  // 27 partitions, theta 0.3 — paper defaults.
  core::PartitionedAlex alex(&pair.left, &pair.right, config);
  Stopwatch build_watch;
  alex.Build();
  telemetry.AddPhase("build_space", build_watch.ElapsedSeconds());

  const core::LinkSpace& space = alex.space(0);
  const auto& stats = space.stats();
  size_t truth_in_partition = 0;
  size_t truth_in_space = 0;
  for (feedback::PairKey key : pair.truth.pairs()) {
    if (alex.PartitionOf(feedback::PairLeft(key)) != 0) continue;
    ++truth_in_partition;
    if (space.Contains(key)) ++truth_in_space;
  }
  using ull = unsigned long long;  // For %llu.
  const ull kept = stats.kept_pairs;
  std::printf("Figure 5: total links vs filtered search space vs ground truth"
              " (partition 0 of DBpedia-NYTimes, theta=%.2f)\n\n",
              config.theta);
  std::printf("(a) %-32s %12llu\n", "Total possible links",
              ull{stats.total_possible});
  std::printf("    %-32s %12llu  (%.1f%% of total)\n",
              "Filtered search space", kept,
              100.0 * stats.kept_pairs / stats.total_possible);
  std::printf("    -> filtering removes %.1f%% of the space\n\n",
              100.0 * (1.0 - static_cast<double>(stats.kept_pairs) /
                                 stats.total_possible));
  std::printf("(b) %-32s %12llu\n", "Filtered search space", kept);
  std::printf("    %-32s %12zu  (%.2f%% of filtered)\n",
              "Ground truth links (partition 0)", truth_in_partition,
              100.0 * truth_in_partition / stats.kept_pairs);
  std::printf("    ground truth retained in space:  %zu / %zu (%.1f%%)\n",
              truth_in_space, truth_in_partition,
              truth_in_partition == 0
                  ? 0.0
                  : 100.0 * truth_in_space / truth_in_partition);
  const auto total = alex.AggregatedSpaceStats();
  std::printf("\nAll partitions: total=%llu candidates=%llu filtered=%llu "
              "features=%llu\n",
              ull{total.total_possible}, ull{total.candidate_pairs},
              ull{total.kept_pairs}, ull{total.features_indexed});
}

// Figure 7: the rollback optimization (Section 6.3): (a) overall quality
// without rollback; (b) a partition that recovers and (c) one that does not,
// traced per partition by the simulation observer.
void Fig7(TelemetrySidecar& telemetry) {
  SimulationConfig config = MakeConfig(dg::DbpediaNytimes(), 1000);
  config.alex.max_episodes = 60;  // Paper runs to its cap of 100.
  // The paper's exploration actions are unbounded; the engine's per-action
  // yield cap would otherwise mask most of the damage rollback exists to
  // undo, so this experiment lifts it for both arms.
  config.alex.max_links_per_action = 1000000;
  SimulationConfig without_config = config;
  without_config.alex.use_rollback = false;

  std::map<size_t, std::vector<double>> partition_f;
  std::vector<feedback::GroundTruth> partition_truth;
  simulation::Simulation sim(without_config);
  sim.set_observer([&](size_t, const core::PartitionedAlex& alex) {
    for (size_t p = 0; p < alex.num_partitions(); ++p) {
      if (partition_truth.size() == p) {
        partition_truth.push_back(
            simulation::Simulation::PartitionTruth(sim.data().truth, alex, p));
      }
      partition_f[p].push_back(
          core::ComputeMetrics(alex.engine(p).candidates(), partition_truth[p])
              .f_measure);
    }
  });
  const RunResult without_rb = sim.Run();
  telemetry.AddRun("without_rollback", without_rb);
  PrintQualityFigure("Figure 7(a): overall quality WITHOUT rollback",
                     without_rb);

  // The best-recovering and the worst partition by final F.
  size_t best = 0, worst = 0;
  for (const auto& [p, series] : partition_f) {
    if (series.empty()) continue;
    if (series.back() > partition_f[best].back()) best = p;
    if (series.back() < partition_f[worst].back()) worst = p;
  }
  const auto print_partition = [&](char panel, const char* what, size_t p) {
    std::printf("\n=== Figure 7(%c): %s (partition %zu, no rollback) ===\n"
                "%8s %10s\n", panel, what, p, "episode", "f-measure");
    for (size_t i = 0; i < partition_f[p].size(); ++i) {
      std::printf("%8zu %10.3f\n", i + 1, partition_f[p][i]);
    }
  };
  print_partition('b', "a partition that recovers", best);
  print_partition('c', "a partition that does not recover", worst);

  // Contrast: the same configuration WITH rollback (the default).
  const RunResult with_rb = Run(config, "with_rollback", telemetry);
  PrintComparisonFigure("Rollback contrast", "F-measure",
                        {"with_rollback", "without_rollback"},
                        {&with_rb, &without_rb}, ExtractF);
}

// Section 7.3: wall time in batch mode (DBpedia-NYTimes) and interactively
// (DBpedia NBA - NYTimes), with the space-build times per partition.
void Sec7_3(TelemetrySidecar& telemetry) {
  SimulationConfig batch = MakeConfig(dg::DbpediaNytimes(), 1000);
  batch.alex.max_episodes = 20;  // Enough episodes to average timing over.
  const RunResult b = Run(batch, "batch_dbpedia_nytimes", telemetry);
  SimulationConfig interactive = MakeConfig(dg::DbpediaNbaNytimes(), 10);
  interactive.alex.num_partitions = 4;
  const RunResult i = Run(interactive, "interactive_nba_nytimes", telemetry);

  const auto mean_episode_seconds = [](const RunResult& r) {
    double seconds = 0.0;
    for (size_t e = 1; e < r.episodes.size(); ++e) {
      seconds += r.episodes[e].seconds;
    }
    return seconds / std::max<size_t>(1, r.episodes.size() - 1);
  };
  std::printf("Section 7.3: execution time\n\n");
  std::printf("%-34s %14s %14s\n", "", "batch(NYT)", "interactive(NBA)");
  std::printf("%-34s %14zu %14zu\n", "episodes run", b.episodes.size() - 1,
              i.episodes.size() - 1);
  std::printf("%-34s %14.3f %14.4f\n", "avg seconds per episode",
              mean_episode_seconds(b), mean_episode_seconds(i));
  std::printf("%-34s %14.2f %14.3f\n", "total run seconds", b.total_seconds,
              i.total_seconds);
  std::printf("%-34s %14.2f %14.3f\n", "slowest partition build (s)",
              b.build_seconds_max, i.build_seconds_max);
  std::printf("%-34s %14.2f %14.3f\n", "average partition build (s)",
              b.build_seconds_avg, i.build_seconds_avg);
  std::printf("%-34s %14.3f %14.4f\n", "shared blocking index build (s)",
              b.shared_index_seconds, i.shared_index_seconds);
  std::printf(
      "\npaper reference: ~7 min/episode batch (97 min total, 64-core "
      "server, full-size LOD data), ~1.3 s/episode interactive. This "
      "reproduction runs scaled-down data on this machine; the *ratio* "
      "batch >> interactive is the reproduced result.\n");
}

// Ablation: "ALEX can work with any initial set of candidate links"
// (Section 2). Seeds from PARIS, the exact-label baseline, SILK-style rules
// and nothing (a cold start cannot move) should converge to similar quality
// when non-empty. They are not registered linkers: this drives
// PartitionedAlex directly.
void AblationLinker(TelemetrySidecar& telemetry) {
  Stopwatch generate_watch;
  dg::GeneratedPair pair = dg::GenerateScenario(dg::DbpediaLexvo());
  telemetry.AddPhase("generate", generate_watch.ElapsedSeconds());
  std::printf("Ablation: initial linker choice (DBpedia-Lexvo, GT=%zu)\n\n",
              pair.truth.size());

  paris::ParisLinker paris_linker(&pair.left, &pair.right);
  const auto paris_links = paris_linker.Run();
  const auto naive_links = paris::NaiveLabelLinker(pair.left, pair.right, 0.5);
  // SILK-style rules: fuzzy comparisons over the identifying fields.
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
  const std::pair<const char*, const std::vector<paris::ScoredLink>*>
      seeds[] = {{"paris", &paris_links},
                 {"naive", &naive_links},
                 {"silk", &silk_links},
                 {"empty", &empty}};

  std::vector<std::vector<double>> f;
  for (const auto& [label, links] : seeds) {
    Stopwatch seed_watch;
    core::AlexConfig config;
    config.episode_size = 1000;
    config.max_episodes = 25;
    core::PartitionedAlex alex(&pair.left, &pair.right, config);
    alex.Build();
    alex.InitializeCandidates(*links);
    feedback::Oracle oracle(&pair.truth, 0.0, 99);
    const auto metrics = [&] {
      return core::ComputeMetrics(alex.Candidates(), pair.truth);
    };
    std::vector<double>& series = f.emplace_back();
    series.push_back(metrics().f_measure);
    for (size_t episode = 1; episode <= config.max_episodes; ++episode) {
      for (size_t i = 0; i < config.episode_size; ++i) {
        auto item = oracle.SampleAndJudge(
            alex.NumCandidates(),
            [&](size_t k) { return alex.CandidateAt(k); });
        if (!item) break;
        alex.ProcessFeedback(*item);
      }
      alex.EndEpisode();
      series.push_back(metrics().f_measure);
    }
    const auto m = metrics();
    std::printf("%-8s seeds=%5zu final: P=%.3f R=%.3f F=%.3f candidates=%zu\n",
                label, links->size(), m.precision, m.recall, m.f_measure,
                alex.NumCandidates());
    telemetry.AddPhase(label, seed_watch.ElapsedSeconds());
  }

  std::printf("\n%8s %10s %10s %10s %10s\n", "episode", "paris", "naive",
              "silk", "empty");
  for (size_t i = 0; i < f[0].size(); ++i) {  // Every series has one length.
    std::printf("%8zu", i);
    for (const auto& series : f) std::printf(" %10.3f", series[i]);
    std::printf("\n");
  }
}

// Ablation: equal-size partitioning (Section 6.2) should cut build time
// without costing quality; a sweep of the partition count.
void AblationPartitions(TelemetrySidecar& telemetry) {
  std::printf("Ablation: partition count (DBpedia-NYTimes, batch mode)\n\n");
  std::printf("%12s %10s %10s %10s %12s %14s %14s %14s\n", "partitions",
              "final_P", "final_R", "final_F", "episodes", "build_max_s",
              "build_sum_s", "shared_idx_s");
  for (size_t partitions : {1, 3, 9, 27, 54}) {
    SimulationConfig config = MakeConfig(dg::DbpediaNytimes(), 1000);
    config.alex.num_partitions = partitions;
    config.alex.max_episodes = 25;
    const RunResult r =
        Run(config, "partitions_" + std::to_string(partitions), telemetry);
    const auto& m = r.final_episode().metrics;
    std::printf("%12zu %10.3f %10.3f %10.3f %12zu %14.2f %14.2f %14.3f\n",
                partitions, m.precision, m.recall, m.f_measure,
                r.episodes.size() - 1, r.build_seconds_max,
                r.build_seconds_avg * static_cast<double>(partitions),
                r.shared_index_seconds);
  }
  std::printf(
      "\nWith p worker cores the preprocessing wall time approaches "
      "shared_idx_s + build_sum_s / p, bounded below by build_max_s — the "
      "paper's equal-size partitioning argument, with the blocking index "
      "paid once instead of once per partition (see bench_build_space). "
      "Final quality stays in the same band across partitionings at a "
      "fixed feedback budget; the mild variation reflects that each "
      "partition learns its own policy from its share of the feedback "
      "(few partitions concentrate junk in one space, very many spread "
      "the learning signal thin).\n");
}

Change Episodes(size_t n) {
  return [n](SimulationConfig& c) { c.alex.max_episodes = n; };
}

std::vector<Figure> PaperFigures() {
  using C = SimulationConfig;
  return {
      {.id = "table1", .custom = Table1},
      // Figures 2 and 3: batch-mode quality with the relaxed (5%) and
      // strict convergence markers of the paper's vertical lines.
      {.id = "fig2",
       .arms = {Quality("Figure 2(a): DBpedia - NYTimes", dg::DbpediaNytimes),
                Quality("Figure 2(b): DBpedia - Drugbank", dg::DbpediaDrugbank),
                Quality("Figure 2(c): DBpedia - Lexvo", dg::DbpediaLexvo)}},
      {.id = "fig3",
       .arms = {Quality("Figure 3(a): OpenCyc - NYTimes", dg::OpencycNytimes),
                Quality("Figure 3(b): OpenCyc - Drugbank", dg::OpencycDrugbank),
                Quality("Figure 3(c): OpenCyc - Lexvo", dg::OpencycLexvo)}},
      // Figure 4: specific domains, interactively (episode size 10).
      {.id = "fig4",
       .episode_size = 10,
       .base = [](C& c) { c.alex.num_partitions = 4; },  // Small data sets.
       .arms = {Quality("Figure 4(a): DBpedia - Semantic Web Dogfood",
                        dg::DbpediaSwdf),
                Quality("Figure 4(b): OpenCyc - Semantic Web Dogfood",
                        dg::OpencycSwdf),
                Quality("Figure 4(c): DBpedia (NBA) - NYTimes",
                        dg::DbpediaNbaNytimes),
                Quality("Figure 4(d): OpenCyc (NBA) - NYTimes",
                        dg::OpencycNbaNytimes)}},
      {.id = "fig5", .custom = Fig5},
      // Figure 6: the blacklist optimization (Section 6.3).
      {.id = "fig6",
       .arms = {{"with_blacklist"},
                {"without_blacklist",
                 [](C& c) { c.alex.use_blacklist = false; }}},
       .series = {{"Figure 6(a): effect of the blacklist", "F-measure",
                   ExtractF},
                  {"Figure 6(b): negative feedback", "percent of feedback",
                   ExtractNegPercent, 11}},
       .footer = [](const Labels&, const Results& r) {
         std::printf(
             "\nconvergence: with_blacklist strict=%s relaxed=%s | "
             "without_blacklist strict=%s relaxed=%s\n",
             ConvergenceEpisode(r[0].converged_episode).c_str(),
             ConvergenceEpisode(r[0].relaxed_episode).c_str(),
             ConvergenceEpisode(r[1].converged_episode).c_str(),
             ConvergenceEpisode(r[1].relaxed_episode).c_str());
       }},
      {.id = "fig7", .custom = Fig7},
      {.id = "sec7_3", .custom = Sec7_3},
      // Figure 8 (Appendix B): the largest, most heterogeneous pair.
      {.id = "fig8",
       .arms = {Quality(
           "Figure 8: quality of links between DBpedia and OpenCyc",
           dg::DbpediaOpencyc)},
       .footer = [](const Labels&, const Results&) {
         std::printf(
             "paper reference: PARIS seeds 12227 correct links, ALEX "
             "discovers 23476 more, converging at episode 20 (relaxed 7) "
             "with F > 0.9\n");
       }},
      // Figure 9 (Appendix C): 10% incorrect feedback. With error rate e
      // and J judgments per link, a blacklist threshold k loses about
      // J * e^k of the correct links; at e = 0.1 and J ~ 25, k = 3 keeps
      // that under a few percent (the paper's recall barely moves).
      {.id = "fig9",
       .base = Episodes(40),
       .arms = {{"correct_feedback", nullptr, "correct"},
                {"noisy_feedback",
                 [](C& c) {
                   c.feedback_error_rate = 0.10;
                   c.alex.blacklist_threshold = 3;
                 },
                 "10%_incorrect"}},
       .series = {{"Figure 9(a)", "precision", ExtractPrecision},
                  {"Figure 9(b)", "recall", ExtractRecall},
                  {"Figure 9(c)", "F-measure", ExtractF}}},
      // Figure 10 (Appendix D): step size, the exploration band's
      // half-width; larger steps explore more junk and take longer.
      {.id = "fig10",
       .base = Episodes(40),
       .arms = {{"step_0.01", [](C& c) { c.alex.step_size = 0.01; }},
                {"step_0.05", [](C& c) { c.alex.step_size = 0.05; }},
                {"step_0.10", [](C& c) { c.alex.step_size = 0.1; }}},
       .series = {{"Figure 10(a)", "F-measure", ExtractF},
                  {"Figure 10(b)", "recall", ExtractRecall},
                  {"Figure 10(c)", "negative feedback %", ExtractNegPercent,
                   11}},
       .footer = [](const Labels& shown, const Results& r) {
         std::printf(
             "\nexecution time (total seconds, including space build):\n");
         for (size_t i = 0; i < r.size(); ++i) {
           std::printf("  %s: %.2fs (slowest partition build %.2fs)\n",
                       shown[i].c_str(), r[i].total_seconds,
                       r[i].build_seconds_max);
         }
       }},
      // Figure 11 (Appendix D): episode size.
      {.id = "fig11",
       .base = Episodes(60),
       .arms = {{"episode_500", [](C& c) { c.alex.episode_size = 500; }},
                {"episode_1000"},
                {"episode_1500", [](C& c) { c.alex.episode_size = 1500; }}},
       .series = {{"Figure 11", "F-measure", ExtractF}},
       .footer = [](const Labels& shown, const Results& r) {
         std::printf("\nconvergence episodes (strict / relaxed):\n");
         for (size_t i = 0; i < r.size(); ++i) {
           std::printf("  %s: strict=%s relaxed=%s final_F=%.3f\n",
                       shown[i].c_str(),
                       ConvergenceEpisode(r[i].converged_episode).c_str(),
                       ConvergenceEpisode(r[i].relaxed_episode).c_str(),
                       r[i].final_episode().metrics.f_measure);
         }
       }},
      // Ablation: Section 1 argues that exploring around random features
      // is ineffective. The learned policy against random actions, a
      // constant epsilon, and no blacklist or rollback.
      {.id = "ablation_policy",
       .base = Episodes(30),
       .arms = {{"learned"},
                {"random_policy",
                 [](C& c) {
                   c.alex.epsilon = 1.0;
                   c.alex.epsilon_decay = false;
                 }},
                {"no_eps_decay", [](C& c) { c.alex.epsilon_decay = false; }},
                {"no_optims",
                 [](C& c) {
                   c.alex.use_blacklist = false;
                   c.alex.use_rollback = false;
                 }}},
       .series = {{"Ablation: action policy", "F-measure", ExtractF},
                  {"Ablation: action policy", "negative feedback %",
                   ExtractNegPercent}},
       .footer = [](const Labels&, const Results& r) {
         std::printf(
             "\nfinal F: learned=%.3f random=%.3f no_decay=%.3f "
             "no_optims=%.3f\n",
             r[0].final_episode().metrics.f_measure,
             r[1].final_episode().metrics.f_measure,
             r[2].final_episode().metrics.f_measure,
             r[3].final_episode().metrics.f_measure);
       }},
      {.id = "ablation_linker", .custom = AblationLinker},
      {.id = "ablation_partitions", .custom = AblationPartitions},
      // Ablation: reward asymmetry. Section 4.3 allows penalizing a wrong
      // link harder than an approved link is rewarded.
      {.id = "ablation_rewards",
       .base = Episodes(30),
       .arms = {{"neg_-1", [](C& c) { c.alex.negative_reward = -1.0; }},
                {"neg_-2", [](C& c) { c.alex.negative_reward = -2.0; }},
                {"neg_-5", [](C& c) { c.alex.negative_reward = -5.0; }}},
       .series = {{"Ablation: negative-reward magnitude", "F-measure",
                   ExtractF},
                  {"Ablation: negative-reward magnitude",
                   "negative feedback %", ExtractNegPercent, 11}},
       .footer = [](const Labels& shown, const Results& r) {
         std::printf("\nfinal F / relaxed convergence:\n");
         for (size_t i = 0; i < r.size(); ++i) {
           std::printf("  %s: F=%.3f relaxed=%s strict=%s\n",
                       shown[i].c_str(),
                       r[i].final_episode().metrics.f_measure,
                       ConvergenceEpisode(r[i].relaxed_episode).c_str(),
                       ConvergenceEpisode(r[i].converged_episode).c_str());
         }
       }},
  };
}

}  // namespace
}  // namespace alex::bench

int main(int argc, char** argv) {
  using namespace alex::bench;
  alex::InitLoggingFromEnv();
  const std::vector<Figure> figures = PaperFigures();
  std::vector<const Figure*> selected;
  for (int a = 1; a < argc; ++a) {
    const auto it = std::find_if(
        figures.begin(), figures.end(),
        [&](const Figure& f) { return std::string(f.id) == argv[a]; });
    if (it == figures.end()) {
      std::fprintf(stderr, "unknown figure id '%s'; valid ids:", argv[a]);
      for (const Figure& f : figures) std::fprintf(stderr, " %s", f.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(&*it);
  }
  if (argc == 1) {
    for (const Figure& f : figures) selected.push_back(&f);
  }
  for (const Figure* fig : selected) {
    TelemetrySidecar telemetry(std::string("bench_paper.") + fig->id);
    if (fig->custom != nullptr) {
      fig->custom(telemetry);
    } else {
      RunSweep(*fig, telemetry);
    }
  }
  return 0;
}
