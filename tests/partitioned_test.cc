#include "core/partitioned.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"

namespace alex::core {
namespace {

using feedback::PackPair;

class PartitionedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::ScenarioConfig c;
    c.seed = 21;
    c.num_shared = 30;
    c.num_left_only = 20;
    c.num_right_only = 10;
    c.domains = {"person"};
    c.value_noise = 0.2;
    pair_ = datagen::GenerateScenario(c);
    config_.num_partitions = 4;
    config_.num_threads = 2;
    config_.episode_size = 10;
  }

  datagen::GeneratedPair pair_;
  AlexConfig config_;
};

TEST_F(PartitionedTest, RoundRobinPartitioning) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  EXPECT_EQ(alex.num_partitions(), 4u);
  EXPECT_EQ(alex.PartitionOf(0), 0u);
  EXPECT_EQ(alex.PartitionOf(1), 1u);
  EXPECT_EQ(alex.PartitionOf(5), 1u);
  EXPECT_EQ(alex.PartitionOf(7), 3u);
}

TEST_F(PartitionedTest, BuildReturnsPerPartitionTimes) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  std::vector<double> seconds = alex.Build();
  EXPECT_EQ(seconds.size(), 4u);
  for (double s : seconds) EXPECT_GE(s, 0.0);
}

TEST_F(PartitionedTest, PartitionSpacesCoverDistinctLeftEntities) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    for (feedback::PairKey pairkey : alex.space(p).pairs()) {
      EXPECT_EQ(alex.PartitionOf(feedback::PairLeft(pairkey)), p);
    }
  }
}

TEST_F(PartitionedTest, CandidateRoutingAndUnion) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  std::vector<feedback::PairKey> initial = {PackPair(0, 0), PackPair(1, 1),
                                            PackPair(6, 2)};
  alex.InitializeCandidates(initial);
  EXPECT_EQ(alex.NumCandidates(), 3u);
  EXPECT_EQ(alex.Candidates().size(), 3u);
  EXPECT_EQ(alex.CandidateVector().size(), 3u);
  // Each candidate lives in the partition of its left entity.
  EXPECT_TRUE(alex.engine(0).candidates().count(PackPair(0, 0)));
  EXPECT_TRUE(alex.engine(1).candidates().count(PackPair(1, 1)));
  EXPECT_TRUE(alex.engine(2).candidates().count(PackPair(6, 2)));
  EXPECT_FALSE(alex.engine(3).candidates().count(PackPair(0, 0)));
}

TEST_F(PartitionedTest, FeedbackRoutedToOwningPartition) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  alex.InitializeCandidates(
      std::vector<feedback::PairKey>{PackPair(2, 2), PackPair(3, 3)});
  alex.ProcessFeedback(feedback::FeedbackItem{2, 2, false});
  EXPECT_FALSE(alex.engine(2).candidates().count(PackPair(2, 2)));
  EXPECT_TRUE(alex.engine(3).candidates().count(PackPair(3, 3)));
  EXPECT_EQ(alex.NumCandidates(), 1u);
}

TEST_F(PartitionedTest, BatchProcessingEqualsSequential) {
  std::vector<feedback::FeedbackItem> items;
  std::vector<feedback::PairKey> initial;
  for (uint32_t i = 0; i < 20; ++i) {
    initial.push_back(PackPair(i % 50, i % 20));
    items.push_back(
        feedback::FeedbackItem{i % 50, i % 20, (i % 3) != 0});
  }

  PartitionedAlex sequential(&pair_.left, &pair_.right, config_);
  sequential.Build();
  sequential.InitializeCandidates(initial);
  for (const auto& item : items) sequential.ProcessFeedback(item);

  PartitionedAlex batched(&pair_.left, &pair_.right, config_);
  batched.Build();
  batched.InitializeCandidates(initial);
  batched.ProcessFeedbackBatch(items);

  EXPECT_EQ(sequential.Candidates(), batched.Candidates());
}

TEST_F(PartitionedTest, BatchProcessingAggregatesStats) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  alex.InitializeCandidates(
      std::vector<feedback::PairKey>{PackPair(0, 0), PackPair(1, 1)});
  alex.ProcessFeedbackBatch({feedback::FeedbackItem{0, 0, false},
                             feedback::FeedbackItem{1, 1, false}});
  EngineEpisodeStats stats = alex.EndEpisode();
  EXPECT_EQ(stats.negative_items, 2u);
  EXPECT_EQ(stats.links_removed, 2u);
}

TEST_F(PartitionedTest, EndEpisodeAggregatesStats) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  alex.InitializeCandidates(
      std::vector<feedback::PairKey>{PackPair(0, 0), PackPair(1, 1)});
  alex.ProcessFeedback(feedback::FeedbackItem{0, 0, false});
  alex.ProcessFeedback(feedback::FeedbackItem{1, 1, false});
  EngineEpisodeStats stats = alex.EndEpisode();
  EXPECT_EQ(stats.feedback_items, 2u);
  EXPECT_EQ(stats.negative_items, 2u);
  EXPECT_EQ(stats.links_removed, 2u);
}

// The commit-delta window must span feedback routing, not just
// EndEpisode(): ProcessFeedback mutates candidates directly (negative
// items erase), so a delta taken around EndEpisode() alone reports
// nothing. This pins the contract the link service's epoch commits
// depend on.
TEST_F(PartitionedTest, CommitFeedbackBatchCapturesFeedbackWindowDeltas) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  alex.InitializeCandidates(
      std::vector<feedback::PairKey>{PackPair(0, 0), PackPair(1, 1),
                                     PackPair(2, 2)});

  PartitionedAlex::EpisodeCommit commit = alex.CommitFeedbackBatch(
      {feedback::FeedbackItem{0, 0, false}, feedback::FeedbackItem{1, 1,
                                                                   false}});
  EXPECT_EQ(commit.stats.negative_items, 2u);
  EXPECT_EQ(commit.stats.links_removed, 2u);
  // The rejected links appear in the removed delta, sorted ascending.
  ASSERT_EQ(commit.removed.size(), 2u);
  EXPECT_EQ(commit.removed[0], PackPair(0, 0));
  EXPECT_EQ(commit.removed[1], PackPair(1, 1));
  // Exploration may add links on positive paths; here both items were
  // negative with no survivors of their state-action, so nothing new.
  EXPECT_EQ(alex.NumCandidates(), 1u);
}

TEST_F(PartitionedTest, ScoredLinkInitialization) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  std::vector<paris::ScoredLink> links = {{0, 0, 0.99}, {1, 1, 0.97}};
  alex.InitializeCandidates(links);
  EXPECT_EQ(alex.NumCandidates(), 2u);
}

TEST_F(PartitionedTest, AggregatedSpaceStatsSumPartitions) {
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  LinkSpace::BuildStats total = alex.AggregatedSpaceStats();
  uint64_t sum_possible = 0;
  uint64_t sum_kept = 0;
  uint64_t sum_scored = 0;
  uint64_t sum_skipped = 0;
  for (size_t p = 0; p < alex.num_partitions(); ++p) {
    sum_possible += alex.space(p).stats().total_possible;
    sum_kept += alex.space(p).stats().kept_pairs;
    sum_scored += alex.space(p).stats().cells_scored;
    sum_skipped += alex.space(p).stats().cells_skipped;
  }
  EXPECT_EQ(total.total_possible, sum_possible);
  EXPECT_EQ(total.kept_pairs, sum_kept);
  EXPECT_EQ(total.cells_scored, sum_scored);
  EXPECT_EQ(total.cells_skipped, sum_skipped);
  EXPECT_GT(total.cells_scored, 0u);
  EXPECT_EQ(total.total_possible,
            static_cast<uint64_t>(pair_.left.num_entities()) *
                pair_.right.num_entities());
}

TEST_F(PartitionedTest, SinglePartitionDegenerateCase) {
  config_.num_partitions = 1;
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  EXPECT_EQ(alex.num_partitions(), 1u);
  EXPECT_EQ(alex.PartitionOf(49), 0u);
}

TEST_F(PartitionedTest, ZeroPartitionsClampedToOne) {
  config_.num_partitions = 0;
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  EXPECT_EQ(alex.num_partitions(), 1u);
}

TEST_F(PartitionedTest, MorePartitionsThanEntitiesIsSafe) {
  config_.num_partitions = 1000;
  PartitionedAlex alex(&pair_.left, &pair_.right, config_);
  alex.Build();
  EXPECT_EQ(alex.num_partitions(), 1000u);
  EXPECT_EQ(alex.AggregatedSpaceStats().total_possible,
            static_cast<uint64_t>(pair_.left.num_entities()) *
                pair_.right.num_entities());
}

}  // namespace
}  // namespace alex::core
