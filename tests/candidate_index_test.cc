// Feedback is sampled by index into the canonical candidate order
// (partition-major, ascending within a partition) with no per-item
// snapshot. These tests pin the two halves of that contract: the indexed
// lookup agrees with the snapshot it replaces, and the oracle's indexed
// draw consumes its RNG stream exactly as the vector draw does.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "feedback/oracle.h"
#include "paris/seed_linkers.h"

namespace alex {
namespace {

using feedback::FeedbackItem;
using feedback::Oracle;
using feedback::PairKey;

void ExpectIndexMatchesSnapshot(const core::PartitionedAlex& alex) {
  const std::vector<PairKey> snapshot = alex.CandidateVector();
  ASSERT_EQ(alex.NumCandidates(), snapshot.size());
  for (size_t k = 0; k < snapshot.size(); ++k) {
    ASSERT_EQ(alex.CandidateAt(k), snapshot[k]) << "k=" << k;
    if (k == 0) continue;
    // Canonical order: partition-major, ascending within a partition.
    const size_t prev = alex.PartitionOf(feedback::PairLeft(snapshot[k - 1]));
    const size_t cur = alex.PartitionOf(feedback::PairLeft(snapshot[k]));
    ASSERT_TRUE(prev < cur || (prev == cur && snapshot[k - 1] < snapshot[k]))
        << "k=" << k;
  }
}

TEST(CandidateIndex, CandidateAtMatchesCandidateVector) {
  datagen::ScenarioConfig scenario = datagen::DbpediaSwdf();
  const auto data = datagen::GenerateScenario(scenario);
  auto linker = paris::MakeSeedLinker(paris::kParisLinkerTag, &data.left,
                                      &data.right);
  ASSERT_TRUE(linker.ok()) << linker.status();
  const std::vector<paris::ScoredLink> initial = (*linker)->Run();

  for (size_t partitions : {1, 4, 27}) {
    SCOPED_TRACE(partitions);
    core::AlexConfig cfg;
    cfg.num_partitions = partitions;
    cfg.num_threads = 2;
    core::PartitionedAlex alex(&data.left, &data.right, cfg);
    alex.Build();
    alex.InitializeCandidates(initial);
    ExpectIndexMatchesSnapshot(alex);

    // Wrong feedback drives removals, blacklisting and rollbacks.
    Oracle oracle(&data.truth, 0.1, 77);
    size_t rollbacks = 0;
    for (int episode = 0; episode < 6; ++episode) {
      for (int i = 0; i < 120; ++i) {
        auto item = oracle.SampleAndJudge(
            alex.NumCandidates(), [&](size_t k) { return alex.CandidateAt(k); });
        ASSERT_TRUE(item.has_value());
        alex.ProcessFeedback(*item);
      }
      rollbacks += alex.EndEpisode().rollbacks;
      ExpectIndexMatchesSnapshot(alex);
    }
    size_t blacklisted = 0;
    for (size_t p = 0; p < alex.num_partitions(); ++p) {
      blacklisted += alex.engine(p).blacklist_size();
    }
    EXPECT_GT(rollbacks, 0u);
    EXPECT_GT(blacklisted, 0u);
  }
}

TEST(CandidateIndex, IndexDrawMatchesVectorDraw) {
  feedback::GroundTruth truth;
  std::vector<PairKey> candidates;
  for (uint32_t i = 0; i < 50; ++i) {
    candidates.push_back(feedback::PackPair(i, i % 7));
    if (i % 3 == 0) truth.Add(i, i % 7);
  }
  Oracle by_vector(&truth, 0.1, 2024);
  Oracle by_index(&truth, 0.1, 2024);
  for (int i = 0; i < 10000; ++i) {
    const std::optional<FeedbackItem> a = by_vector.SampleAndJudge(candidates);
    const std::optional<FeedbackItem> b = by_index.SampleAndJudge(
        candidates.size(), [&](size_t k) { return candidates[k]; });
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(a->key(), b->key()) << "draw " << i;
    ASSERT_EQ(a->positive, b->positive) << "draw " << i;
  }
}

TEST(CandidateIndex, EmptySetDrawsNothing) {
  feedback::GroundTruth truth;
  Oracle by_vector(&truth, 0.1, 5);
  Oracle by_index(&truth, 0.1, 5);
  const auto vector_state = by_vector.SaveRngState();
  const auto index_state = by_index.SaveRngState();
  EXPECT_FALSE(by_vector.SampleAndJudge(std::vector<PairKey>{}).has_value());
  EXPECT_FALSE(by_index
                   .SampleAndJudge(0, [](size_t) -> PairKey {
                     ADD_FAILURE() << "an empty set was indexed";
                     return 0;
                   })
                   .has_value());
  EXPECT_EQ(by_vector.SaveRngState(), vector_state);
  EXPECT_EQ(by_index.SaveRngState(), index_state);
}

}  // namespace
}  // namespace alex
