// Integration tests spanning all modules: synthetic data -> PARIS ->
// partitioned ALEX -> federated querying with feedback on query answers —
// the full pipeline of Figure 1 in the paper.

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "federation/federated_engine.h"
#include "feedback/oracle.h"
#include "paris/paris.h"
#include "simulation/simulation.h"

namespace alex {
namespace {

using core::PartitionedAlex;
using feedback::PackPair;

TEST(EndToEndTest, PipelineImprovesLinkQuality) {
  datagen::ScenarioConfig scenario;
  scenario.name = "e2e";
  scenario.seed = 404;
  scenario.num_shared = 60;
  scenario.num_left_only = 40;
  scenario.num_right_only = 20;
  scenario.domains = {"person", "organization"};
  scenario.value_noise = 0.5;
  scenario.ambiguity = 0.4;
  datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);

  paris::ParisLinker linker(&pair.left, &pair.right);
  std::vector<paris::ScoredLink> initial = linker.Run();
  ASSERT_FALSE(initial.empty());

  core::AlexConfig config;
  config.num_partitions = 4;
  config.num_threads = 2;
  config.episode_size = 100;
  config.max_episodes = 40;
  PartitionedAlex alex(&pair.left, &pair.right, config);
  alex.Build();
  alex.InitializeCandidates(initial);

  const core::LinkSetMetrics before =
      core::ComputeMetrics(alex.Candidates(), pair.truth);

  feedback::Oracle oracle(&pair.truth, 0.0, 17);
  for (size_t episode = 0; episode < config.max_episodes; ++episode) {
    for (size_t i = 0; i < config.episode_size; ++i) {
      auto item = oracle.SampleAndJudge(
          alex.NumCandidates(), [&](size_t k) { return alex.CandidateAt(k); });
      if (!item) break;
      alex.ProcessFeedback(*item);
    }
    alex.EndEpisode();
  }

  const core::LinkSetMetrics after =
      core::ComputeMetrics(alex.Candidates(), pair.truth);
  EXPECT_GT(after.f_measure, before.f_measure);
  EXPECT_GT(after.recall, before.recall);
  EXPECT_GT(after.f_measure, 0.8);
}

/// The feedback channel of the paper: a federated query produces answers
/// whose provenance names the links used; rejecting an answer removes the
/// offending link from both the federation index and the ALEX engine.
TEST(EndToEndTest, FederatedFeedbackRemovesWrongLink) {
  datagen::ScenarioConfig scenario;
  scenario.name = "fedloop";
  scenario.seed = 505;
  scenario.num_shared = 20;
  scenario.num_left_only = 5;
  scenario.num_right_only = 5;
  scenario.domains = {"person"};
  scenario.value_noise = 0.0;
  datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);

  // Link index: all ground-truth links plus one deliberately wrong link.
  fed::LinkIndex links;
  for (feedback::PairKey key : pair.truth.pairs()) {
    links.Add(pair.left.entity_iri(feedback::PairLeft(key)),
              pair.right.entity_iri(feedback::PairRight(key)));
  }
  const std::string wrong_left = pair.left.entity_iri(0);
  // Find a right entity NOT linked to left 0.
  std::string wrong_right;
  for (rdf::EntityId r = 0; r < pair.right.num_entities(); ++r) {
    if (!pair.truth.Contains(0, r)) {
      wrong_right = pair.right.entity_iri(r);
      break;
    }
  }
  ASSERT_FALSE(wrong_right.empty());
  links.Add(wrong_left, wrong_right);

  fed::Endpoint left_ep(&pair.left);
  fed::Endpoint right_ep(&pair.right);
  fed::FederatedEngine engine(&left_ep, &right_ep, &links);

  // Federated query: the right-side name of the wrong_left entity. The
  // sameAs expansion reaches the right KB through BOTH the correct link
  // and the wrong one, so one answer row is wrong.
  const std::string name_pred_right =
      "http://" + pair.right.name() + ".example.org/ontology/name";
  auto r = engine.ExecuteText("SELECT ?n WHERE { <" + wrong_left + "> <" +
                              name_pred_right + "> ?n . }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GE(r->NumRows(), 2u);

  // The user rejects wrong answers; the provenance names the link to blame
  // (paper Section 3.2). Reject every row whose links disagree with truth.
  size_t removed = 0;
  for (const fed::ProvenancedRow& row : r->rows) {
    for (const fed::SameAsLink& link : row.links_used) {
      auto l = pair.left.FindEntityByIri(link.left_iri);
      auto rr = pair.right.FindEntityByIri(link.right_iri);
      ASSERT_TRUE(l && rr);
      if (!pair.truth.Contains(*l, *rr) &&
          links.Remove(link.left_iri, link.right_iri)) {
        ++removed;
      }
    }
  }
  EXPECT_EQ(removed, 1u);
  EXPECT_FALSE(links.Contains(wrong_left, wrong_right));
  EXPECT_EQ(links.size(), pair.truth.size());

  // Re-running the query now returns only the correct answer.
  auto r2 = engine.ExecuteText("SELECT ?n WHERE { <" + wrong_left + "> <" +
                               name_pred_right + "> ?n . }");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->NumRows(), 1u);
}

TEST(EndToEndTest, SimulationMatchesManualLoop) {
  // The Simulation driver must agree with a hand-rolled loop on the same
  // deterministic configuration.
  simulation::SimulationConfig config;
  config.scenario.name = "agree";
  config.scenario.seed = 71;
  config.scenario.num_shared = 25;
  config.scenario.num_left_only = 15;
  config.scenario.num_right_only = 10;
  config.scenario.domains = {"drug"};
  config.alex.episode_size = 30;
  config.alex.num_partitions = 2;
  config.alex.max_episodes = 10;
  simulation::RunResult result = simulation::Simulation(config).Run();
  ASSERT_GE(result.episodes.size(), 2u);
  // Episode 0 equals PARIS output quality.
  datagen::GeneratedPair pair = datagen::GenerateScenario(config.scenario);
  auto links = paris::ParisLinker(&pair.left, &pair.right,
                                  config.paris).Run();
  std::unordered_set<feedback::PairKey> initial;
  for (const auto& l : links) initial.insert(PackPair(l.left, l.right));
  core::LinkSetMetrics m0 = core::ComputeMetrics(initial, pair.truth);
  EXPECT_DOUBLE_EQ(result.episodes[0].metrics.precision, m0.precision);
  EXPECT_DOUBLE_EQ(result.episodes[0].metrics.recall, m0.recall);
  EXPECT_EQ(result.initial_links, links.size());
}

}  // namespace
}  // namespace alex
