#include "core/engine.h"

#include <gtest/gtest.h>

namespace alex::core {
namespace {

using feedback::FeedbackItem;
using feedback::PackPair;
using rdf::Term;

FeedbackItem Positive(rdf::EntityId l, rdf::EntityId r) {
  return FeedbackItem{l, r, true};
}
FeedbackItem Negative(rdf::EntityId l, rdf::EntityId r) {
  return FeedbackItem{l, r, false};
}

/// Fixture with a controlled link space: 6 left/right pairs with exact
/// names (score 1.0 on the name feature) plus one decoy cluster.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* names[] = {"Alpha Arden",  "Beta Belcar", "Gamma Gild",
                           "Delta Dreston", "Epsil Elmor", "Zeta Zorva"};
    for (int i = 0; i < 6; ++i) {
      left_.AddLiteralTriple("http://l/e" + std::to_string(i),
                             "http://l/name", Term::Literal(names[i]));
      right_.AddLiteralTriple("http://r/e" + std::to_string(i),
                              "http://r/label", Term::Literal(names[i]));
    }
    left_.BuildEntityIndex();
    right_.BuildEntityIndex();
    std::vector<rdf::EntityId> lefts;
    for (rdf::EntityId e = 0; e < left_.num_entities(); ++e) {
      lefts.push_back(e);
    }
    space_.Build(left_, right_, lefts, 0.3, 20000);

    config_.episode_size = 10;
    config_.epsilon = 0.0;  // Deterministic greedy for tests.
    config_.step_size = 0.05;
    config_.max_links_per_action = 100;
    config_.rollback_threshold = 2;
  }

  rdf::EntityId L(int i) {
    return *left_.FindEntityByIri("http://l/e" + std::to_string(i));
  }
  rdf::EntityId R(int i) {
    return *right_.FindEntityByIri("http://r/e" + std::to_string(i));
  }

  rdf::Dataset left_{"l"};
  rdf::Dataset right_{"r"};
  LinkSpace space_;
  AlexConfig config_;
};

TEST_F(EngineTest, InitializeSeedsCandidates) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(1), R(1))});
  EXPECT_EQ(engine.candidates().size(), 2u);
}

TEST_F(EngineTest, PositiveFeedbackExploresBand) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  // The only feature is (name, label) at score 1.0; the band [0.95, 1.05]
  // contains every exact-name pair, so all 6 become candidates.
  EXPECT_EQ(engine.candidates().size(), 6u);
  EXPECT_TRUE(engine.candidates().count(PackPair(L(3), R(3))));
  EXPECT_EQ(engine.total_explored_links(), 5u);
}

TEST_F(EngineTest, NegativeFeedbackRemovesAndBlacklists) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(0), R(1))});
  engine.ProcessFeedback(Negative(L(0), R(1)));
  EXPECT_EQ(engine.candidates().size(), 1u);
  EXPECT_FALSE(engine.candidates().count(PackPair(L(0), R(1))));
  EXPECT_TRUE(engine.IsBlacklisted(PackPair(L(0), R(1))));
  EXPECT_EQ(engine.blacklist_size(), 1u);
}

TEST_F(EngineTest, BlacklistedLinksAreNotReExplored) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(3), R(3))});
  // Blacklist pair 3 first, then explore from pair 0.
  engine.ProcessFeedback(Negative(L(3), R(3)));
  engine.ProcessFeedback(Positive(L(0), R(0)));
  EXPECT_FALSE(engine.candidates().count(PackPair(L(3), R(3))));
  EXPECT_EQ(engine.candidates().size(), 5u);  // 6 exact pairs minus pair 3.
}

TEST_F(EngineTest, BlacklistDisabledAllowsReExploration) {
  config_.use_blacklist = false;
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(3), R(3))});
  engine.ProcessFeedback(Negative(L(3), R(3)));
  engine.ProcessFeedback(Positive(L(0), R(0)));
  // Without the blacklist the wrong link is re-added by exploration.
  EXPECT_TRUE(engine.candidates().count(PackPair(L(3), R(3))));
}

TEST_F(EngineTest, RollbackRemovesGeneratedLinks) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));  // Explores all 6 pairs.
  ASSERT_EQ(engine.candidates().size(), 6u);
  // Two negatives on explored links hit rollback_threshold=2: everything
  // that action generated and was not positively marked is removed.
  engine.ProcessFeedback(Negative(L(1), R(1)));
  engine.ProcessFeedback(Negative(L(2), R(2)));
  // Pairs 1,2 removed by explicit negatives; 3,4,5 removed by rollback;
  // pair 0 (positively marked) survives.
  EXPECT_EQ(engine.candidates().size(), 1u);
  EXPECT_TRUE(engine.candidates().count(PackPair(L(0), R(0))));
}

TEST_F(EngineTest, RolledBackLinksAreNotBlacklisted) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  engine.ProcessFeedback(Negative(L(1), R(1)));
  engine.ProcessFeedback(Negative(L(2), R(2)));
  // 1 and 2 got explicit negatives -> blacklisted. 3,4,5 rolled back only.
  EXPECT_TRUE(engine.IsBlacklisted(PackPair(L(1), R(1))));
  EXPECT_FALSE(engine.IsBlacklisted(PackPair(L(3), R(3))));
  // A later action may rediscover 3,4,5.
  engine.ProcessFeedback(Positive(L(0), R(0)));
  EXPECT_TRUE(engine.candidates().count(PackPair(L(3), R(3))));
}

TEST_F(EngineTest, RollbackDisabledKeepsGeneratedLinks) {
  config_.use_rollback = false;
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  engine.ProcessFeedback(Negative(L(1), R(1)));
  engine.ProcessFeedback(Negative(L(2), R(2)));
  // Only the explicitly rejected links are gone.
  EXPECT_EQ(engine.candidates().size(), 4u);
}

TEST_F(EngineTest, PositivelyMarkedLinksSurviveRollback) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  engine.ProcessFeedback(Positive(L(5), R(5)));  // Approve an explored link.
  engine.ProcessFeedback(Negative(L(1), R(1)));
  engine.ProcessFeedback(Negative(L(2), R(2)));  // Triggers rollback.
  EXPECT_TRUE(engine.candidates().count(PackPair(L(5), R(5))));
  EXPECT_FALSE(engine.candidates().count(PackPair(L(3), R(3))));
}

TEST_F(EngineTest, EpisodeStatsAreAccurate) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(0), R(1))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  engine.ProcessFeedback(Negative(L(0), R(1)));
  EngineEpisodeStats stats = engine.EndEpisode();
  EXPECT_EQ(stats.feedback_items, 2u);
  EXPECT_EQ(stats.positive_items, 1u);
  EXPECT_EQ(stats.negative_items, 1u);
  EXPECT_EQ(stats.links_added, 5u);
  EXPECT_EQ(stats.links_removed, 1u);
  // Stats reset after EndEpisode.
  EngineEpisodeStats empty = engine.EndEpisode();
  EXPECT_EQ(empty.feedback_items, 0u);
}

TEST_F(EngineTest, FirstVisitMonteCarloCreditsGenerators) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  // Feedback on an explored link credits the generating state-action pair.
  engine.ProcessFeedback(Positive(L(1), R(1)));
  const std::span<const FeatureValue> fs =
      space_.FeaturesOf(PackPair(L(0), R(0)));
  ASSERT_FALSE(fs.empty());
  const StateAction generator{PackPair(L(0), R(0)), fs[0].key};
  auto q = engine.policy().Q(generator);
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(*q, 1.0);

  // Second visit of the same state within the episode adds no new return.
  engine.ProcessFeedback(Positive(L(1), R(1)));
  EXPECT_DOUBLE_EQ(*engine.policy().Q(generator), 1.0);
  // But a different explored state's feedback appends a second return.
  engine.ProcessFeedback(Negative(L(2), R(2)));
  EXPECT_DOUBLE_EQ(*engine.policy().Q(generator), 0.0);  // Avg of {1, -1}.
}

TEST_F(EngineTest, NewEpisodeResetsFirstVisit) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  engine.ProcessFeedback(Positive(L(1), R(1)));
  engine.EndEpisode();
  // In a fresh episode the same state counts as a new first visit.
  engine.ProcessFeedback(Positive(L(1), R(1)));
  const std::span<const FeatureValue> fs =
      space_.FeaturesOf(PackPair(L(0), R(0)));
  const StateAction generator{PackPair(L(0), R(0)), fs[0].key};
  EXPECT_DOUBLE_EQ(*engine.policy().Q(generator), 1.0);  // Two +1 returns.
}

TEST_F(EngineTest, FeedbackOnLinkOutsideSpaceIsHandled) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(77, 88)});  // Not in the space.
  engine.ProcessFeedback(Positive(77, 88));  // No action possible; no crash.
  EXPECT_EQ(engine.candidates().size(), 1u);
  engine.ProcessFeedback(Negative(77, 88));
  EXPECT_TRUE(engine.candidates().empty());
}

TEST_F(EngineTest, PositiveFeedbackReadmitsRejectedLink) {
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Negative(L(0), R(0)));  // Erroneous rejection.
  EXPECT_TRUE(engine.candidates().empty());
  EXPECT_TRUE(engine.IsBlacklisted(PackPair(L(0), R(0))));
  engine.ProcessFeedback(Positive(L(0), R(0)));  // User corrects themselves.
  EXPECT_TRUE(engine.candidates().count(PackPair(L(0), R(0))));
  EXPECT_FALSE(engine.IsBlacklisted(PackPair(L(0), R(0))));
}

TEST_F(EngineTest, EpsilonDecayFollowsGlieSchedule) {
  // Pins the corrected GLIE schedule over the first five episodes: after k
  // completed episodes the policy runs with ε0 / k, so episode 1 explores
  // with the full ε0 and episode k+1 with ε0 / k. The previous divisor
  // (episodes + 1) skipped the full-ε0 phase entirely — see
  // AlexConfig::epsilon_decay.
  AlexConfig config = config_;
  config.epsilon = 0.4;
  config.epsilon_decay = true;
  AlexEngine engine(&space_, config, 7);
  EXPECT_DOUBLE_EQ(engine.policy().epsilon(), 0.4);  // Episode 1: full ε0.
  const double expected[] = {0.4 / 1, 0.4 / 2, 0.4 / 3, 0.4 / 4, 0.4 / 5};
  for (int k = 1; k <= 5; ++k) {
    engine.EndEpisode();
    EXPECT_DOUBLE_EQ(engine.policy().epsilon(), expected[k - 1])
        << "after EndEpisode #" << k;
    EXPECT_EQ(engine.episodes_completed(), static_cast<size_t>(k));
  }
}

TEST_F(EngineTest, MaxLinksPerActionCapsYield) {
  config_.max_links_per_action = 2;
  AlexEngine engine(&space_, config_, 1);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(Positive(L(0), R(0)));
  // 5 pairs are in the band but only 2 may be added.
  EXPECT_EQ(engine.candidates().size(), 3u);
}

}  // namespace
}  // namespace alex::core
