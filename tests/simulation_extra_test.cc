// Additional simulation-level behaviours: episode bookkeeping fields, the
// blacklist/rollback toggles reaching the engines, and scenario presets
// driving distinct initial-quality profiles.

#include <gtest/gtest.h>

#include "datagen/scenarios.h"
#include "simulation/simulation.h"

namespace alex::simulation {
namespace {

SimulationConfig TinyConfig(uint64_t seed) {
  SimulationConfig config;
  config.scenario.name = "tiny";
  config.scenario.seed = seed;
  config.scenario.num_shared = 30;
  config.scenario.num_left_only = 20;
  config.scenario.num_right_only = 10;
  config.scenario.domains = {"organization"};
  config.scenario.value_noise = 0.35;
  config.scenario.ambiguity = 0.3;
  config.alex.episode_size = 40;
  config.alex.num_partitions = 2;
  config.alex.max_episodes = 15;
  return config;
}

TEST(SimulationExtraTest, EpisodeRecordsCarryActivityCounters) {
  RunResult r = Simulation(TinyConfig(91)).Run();
  ASSERT_GE(r.episodes.size(), 2u);
  const EpisodeRecord& first = r.episodes[1];
  EXPECT_EQ(first.positive_feedback + first.negative_feedback, 40u);
  EXPECT_GT(first.links_added + first.links_removed, 0u);
  EXPECT_GE(first.seconds, 0.0);
  // Episode 0 is the initial snapshot: no activity.
  EXPECT_EQ(r.episodes[0].positive_feedback, 0u);
  EXPECT_EQ(r.episodes[0].links_changed, 0u);
}

TEST(SimulationExtraTest, BuildTimingFieldsPopulated) {
  RunResult r = Simulation(TinyConfig(92)).Run();
  EXPECT_GT(r.build_seconds_max, 0.0);
  EXPECT_GT(r.build_seconds_avg, 0.0);
  EXPECT_LE(r.build_seconds_avg, r.build_seconds_max + 1e-9);
  EXPECT_GT(r.space_stats.total_possible, 0u);
  EXPECT_GT(r.space_stats.kept_pairs, 0u);
  EXPECT_LE(r.space_stats.kept_pairs, r.space_stats.candidate_pairs);
}

TEST(SimulationExtraTest, DisablingOptimizationsChangesTrajectory) {
  SimulationConfig base = TinyConfig(93);
  SimulationConfig no_optims = base;
  no_optims.alex.use_blacklist = false;
  no_optims.alex.use_rollback = false;
  RunResult a = Simulation(base).Run();
  RunResult b = Simulation(no_optims).Run();
  // Same data and oracle stream shape, but the candidate-set trajectories
  // must diverge once optimizations are off.
  bool diverged = false;
  const size_t common = std::min(a.episodes.size(), b.episodes.size());
  for (size_t i = 0; i < common; ++i) {
    if (a.episodes[i].metrics.candidates != b.episodes[i].metrics.candidates) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged || a.episodes.size() != b.episodes.size());
}

TEST(SimulationExtraTest, PresetProfilesAreDistinct) {
  // Initial (episode-0) profiles of the three DBpedia pairs reproduce the
  // paper's three regimes at scaled size.
  SimulationConfig nyt;
  nyt.scenario = datagen::DbpediaNytimes();
  nyt.alex.max_episodes = 1;
  RunResult r_nyt = Simulation(nyt).Run();
  EXPECT_GT(r_nyt.episodes[0].metrics.precision, 0.7);  // P high.
  EXPECT_LT(r_nyt.episodes[0].metrics.recall, 0.3);     // R low.

  SimulationConfig drug;
  drug.scenario = datagen::DbpediaDrugbank();
  drug.alex.max_episodes = 1;
  RunResult r_drug = Simulation(drug).Run();
  EXPECT_LT(r_drug.episodes[0].metrics.precision, 0.5);  // P low.
  EXPECT_GT(r_drug.episodes[0].metrics.recall, 0.9);     // R high.

  SimulationConfig lexvo;
  lexvo.scenario = datagen::DbpediaLexvo();
  lexvo.alex.max_episodes = 1;
  RunResult r_lex = Simulation(lexvo).Run();
  EXPECT_LT(r_lex.episodes[0].metrics.precision, 0.6);  // Both low.
  EXPECT_LT(r_lex.episodes[0].metrics.recall, 0.6);
}

}  // namespace
}  // namespace alex::simulation
