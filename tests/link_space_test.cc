#include "core/link_space.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datagen/generator.h"

namespace alex::core {
namespace {

using feedback::PackPair;
using rdf::Term;

class LinkSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      const std::string name = "Entity Number" + std::to_string(i);
      left_.AddLiteralTriple("http://l/e" + std::to_string(i),
                             "http://l/name", Term::Literal(name));
      right_.AddLiteralTriple("http://r/e" + std::to_string(i),
                              "http://r/label", Term::Literal(name));
    }
    // A right entity with no counterpart.
    right_.AddLiteralTriple("http://r/odd", "http://r/label",
                            Term::Literal("Totally Unique Zorp"));
    left_.BuildEntityIndex();
    right_.BuildEntityIndex();
    all_left_.clear();
    for (rdf::EntityId e = 0; e < left_.num_entities(); ++e) {
      all_left_.push_back(e);
    }
  }

  rdf::Dataset left_{"l"};
  rdf::Dataset right_{"r"};
  std::vector<rdf::EntityId> all_left_;
};

TEST_F(LinkSpaceTest, ContainsMatchingPairs) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  for (int i = 0; i < 8; ++i) {
    auto l = left_.FindEntityByIri("http://l/e" + std::to_string(i));
    auto r = right_.FindEntityByIri("http://r/e" + std::to_string(i));
    ASSERT_TRUE(l && r);
    EXPECT_TRUE(space.Contains(PackPair(*l, *r))) << i;
  }
}

TEST_F(LinkSpaceTest, FeatureSetAccessible) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  auto l = left_.FindEntityByIri("http://l/e0");
  auto r = right_.FindEntityByIri("http://r/e0");
  const std::span<const FeatureValue> fs = space.FeaturesOf(PackPair(*l, *r));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_DOUBLE_EQ(fs[0].score, 1.0);
  EXPECT_TRUE(space.FeaturesOf(PackPair(999, 999)).empty());
}

TEST_F(LinkSpaceTest, BandQueryReturnsPairsInRange) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  auto l = left_.FindEntityByIri("http://l/e0");
  auto r = right_.FindEntityByIri("http://r/e0");
  const std::span<const FeatureValue> fs = space.FeaturesOf(PackPair(*l, *r));
  ASSERT_FALSE(fs.empty());
  const FeatureKey feature = fs[0].key;

  std::vector<uint32_t> found;
  space.BandQuery(feature, 0.95, 1.0, &found);
  // All 8 exact-name pairs have score 1.0 on (name, label); cross pairs
  // ("Entity Number1" vs "Entity Number2") share the token "entity"
  // and "number?" prefixes, scoring below 0.95.
  EXPECT_EQ(found.size(), 8u);

  found.clear();
  space.BandQuery(feature, 0.0, 1.0, &found);
  const size_t all_on_feature = found.size();
  EXPECT_GE(all_on_feature, 8u);

  found.clear();
  space.BandQuery(feature, 1.1, 2.0, &found);
  EXPECT_TRUE(found.empty());

  found.clear();
  space.BandQuery(0xdeadbeefULL, 0.0, 1.0, &found);  // Unknown feature.
  EXPECT_TRUE(found.empty());
}

TEST_F(LinkSpaceTest, BandQueryMatchesBruteForce) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  auto l = left_.FindEntityByIri("http://l/e0");
  auto r = right_.FindEntityByIri("http://r/e0");
  const FeatureKey feature = space.FeaturesOf(PackPair(*l, *r))[0].key;
  for (double lo : {0.0, 0.3, 0.5, 0.9, 0.99}) {
    const double hi = lo + 0.3;
    std::vector<uint32_t> ordinals;
    space.BandQuery(feature, lo, hi, &ordinals);
    std::vector<feedback::PairKey> banded;
    for (uint32_t o : ordinals) banded.push_back(space.pairs()[o]);
    std::vector<feedback::PairKey> brute;
    for (feedback::PairKey pair : space.pairs()) {
      for (const FeatureValue& f : space.FeaturesOf(pair)) {
        if (f.key == feature && static_cast<float>(f.score) >= lo &&
            static_cast<float>(f.score) <= hi) {
          brute.push_back(pair);
        }
      }
    }
    std::sort(banded.begin(), banded.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(banded, brute) << "lo=" << lo;
  }
}

TEST_F(LinkSpaceTest, BandQueryBoundsAreNotWidenedByFloatRounding) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  auto l = left_.FindEntityByIri("http://l/e0");
  auto r = right_.FindEntityByIri("http://r/e0");
  const FeatureKey feature = space.FeaturesOf(PackPair(*l, *r))[0].key;

  // The 8 exact-name pairs score exactly 1.0. A lower bound just above 1.0
  // truncates to 1.0f; comparing in float would admit all of them even
  // though every score lies below the requested band.
  std::vector<uint32_t> found;
  space.BandQuery(feature, 1.0 + 1e-12, 2.0, &found);
  EXPECT_TRUE(found.empty());

  // Symmetrically, an upper bound just below 1.0 rounds up to 1.0f; float
  // comparison would keep the score-1.0 pairs inside the band.
  found.clear();
  space.BandQuery(feature, 0.999, 1.0 - 1e-12, &found);
  for (uint32_t o : found) {
    for (const FeatureValue& f : space.FeaturesOf(space.pairs()[o])) {
      if (f.key == feature) {
        EXPECT_LT(static_cast<float>(f.score), 1.0f);
      }
    }
  }

  // Inclusive bounds still admit exact matches.
  found.clear();
  space.BandQuery(feature, 1.0, 1.0, &found);
  EXPECT_EQ(found.size(), 8u);
}

TEST_F(LinkSpaceTest, StatsAreConsistent) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  const LinkSpace::BuildStats& stats = space.stats();
  EXPECT_EQ(stats.total_possible, 8u * 9u);
  EXPECT_EQ(stats.kept_pairs, space.size());
  EXPECT_LE(stats.kept_pairs, stats.candidate_pairs);
  EXPECT_LE(stats.candidate_pairs, stats.total_possible);
  EXPECT_GT(stats.features_indexed, 0u);
}

TEST_F(LinkSpaceTest, PartitionSubsetRestrictsLeftSide) {
  auto l3 = left_.FindEntityByIri("http://l/e3");
  LinkSpace space;
  space.Build(left_, right_, {*l3}, 0.3, 20000);
  auto r3 = right_.FindEntityByIri("http://r/e3");
  EXPECT_TRUE(space.Contains(PackPair(*l3, *r3)));
  auto l0 = left_.FindEntityByIri("http://l/e0");
  auto r0 = right_.FindEntityByIri("http://r/e0");
  EXPECT_FALSE(space.Contains(PackPair(*l0, *r0)));
}

TEST_F(LinkSpaceTest, BlockCapSkipsStopValues) {
  // With a tiny cap, the shared tokens ("entity", "number") exceed the cap
  // and the exact full-value blocks (1x1 pairs) still qualify.
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 1);
  for (int i = 0; i < 8; ++i) {
    auto l = left_.FindEntityByIri("http://l/e" + std::to_string(i));
    auto r = right_.FindEntityByIri("http://r/e" + std::to_string(i));
    EXPECT_TRUE(space.Contains(PackPair(*l, *r))) << i;
  }
  // Cross pairs proposed only by shared-token blocks are now absent.
  LinkSpace full;
  full.Build(left_, right_, all_left_, 0.3, 20000);
  EXPECT_LT(space.stats().candidate_pairs, full.stats().candidate_pairs);
}

TEST_F(LinkSpaceTest, FeatureCountAndMax) {
  LinkSpace space;
  space.Build(left_, right_, all_left_, 0.3, 20000);
  auto l = left_.FindEntityByIri("http://l/e0");
  auto r = right_.FindEntityByIri("http://r/e0");
  const FeatureKey feature = space.FeaturesOf(PackPair(*l, *r))[0].key;
  EXPECT_GE(space.FeatureCount(feature), 8u);
  EXPECT_EQ(space.FeatureCount(0xdeadbeefULL), 0u);
  EXPECT_GE(space.MaxFeatureCount(), space.FeatureCount(feature));
}

TEST_F(LinkSpaceTest, BuildRejectsUnorderedLeftList) {
  LinkSpace space;
  EXPECT_DEATH(space.Build(left_, right_, {2, 1}, 0.3, 20000), "ascending");
  EXPECT_DEATH(space.Build(left_, right_, {1, 1}, 0.3, 20000), "ascending");
}

// Lookups on a strided left list, the split PartitionedAlex makes
// (e % 3 == 1 of entities 0..9: lefts 1, 4, 7). Entity 4 matches nothing,
// so its run of pairs is empty and sits between two runs that are not.
TEST(LinkSpaceLookupTest, StridedLeftListLookups) {
  rdf::Dataset left{"l"};
  rdf::Dataset right{"r"};
  for (int i = 0; i < 10; ++i) {
    const std::string name =
        i == 4 ? "Qwxz Unmatched" : "Entity Number" + std::to_string(i);
    left.AddLiteralTriple("http://l/e" + std::to_string(i), "http://l/name",
                          Term::Literal(name));
    right.AddLiteralTriple("http://r/e" + std::to_string(i), "http://r/label",
                           Term::Literal("Entity Number" + std::to_string(i)));
  }
  right.AddLiteralTriple("http://r/odd", "http://r/label",
                         Term::Literal("Totally Unique Zorp"));
  left.BuildEntityIndex();
  right.BuildEntityIndex();
  for (rdf::EntityId e = 0; e < 10; ++e) {
    ASSERT_EQ(left.FindEntityByIri("http://l/e" + std::to_string(e)), e);
  }
  std::vector<rdf::EntityId> lefts;
  for (rdf::EntityId e = 0; e < left.num_entities(); ++e) {
    if (e % 3 == 1) lefts.push_back(e);
  }
  ASSERT_EQ(lefts, (std::vector<rdf::EntityId>{1, 4, 7}));

  LinkSpace space;
  space.Build(left, right, lefts, 0.3, 20000);
  ASSERT_GT(space.size(), 0u);

  // Every kept pair is found, with the feature set the build computed.
  const std::set<PairKey> kept(space.pairs().begin(), space.pairs().end());
  for (PairKey pair : space.pairs()) {
    EXPECT_TRUE(space.Contains(pair));
    const std::span<const FeatureValue> fs = space.FeaturesOf(pair);
    const FeatureSet direct =
        ComputeFeatureSet(left, feedback::PairLeft(pair), right,
                          feedback::PairRight(pair), 0.3);
    ASSERT_EQ(fs.size(), direct.size());
    for (size_t i = 0; i < fs.size(); ++i) {
      EXPECT_EQ(fs[i].key, direct[i].key);
      EXPECT_EQ(fs[i].score, direct[i].score);
    }
  }

  // Every other pair is absent: listed lefts whose right was not kept
  // (the odd right among them), the empty run of entity 4, and lefts
  // outside the list, before, between and after the listed ones.
  size_t absent_listed = 0;
  for (rdf::EntityId l = 0; l <= left.num_entities(); ++l) {
    for (rdf::EntityId r = 0; r < right.num_entities(); ++r) {
      const PairKey pair = PackPair(l, r);
      if (kept.count(pair) > 0) continue;
      EXPECT_TRUE(space.FeaturesOf(pair).empty()) << l << "," << r;
      EXPECT_FALSE(space.Contains(pair)) << l << "," << r;
      if (l % 3 == 1 && l != 4) ++absent_listed;
    }
  }
  EXPECT_GT(absent_listed, 0u);
  std::set<rdf::EntityId> lefts_with_pairs;
  for (PairKey pair : space.pairs()) {
    lefts_with_pairs.insert(feedback::PairLeft(pair));
  }
  EXPECT_EQ(lefts_with_pairs, (std::set<rdf::EntityId>{1, 7}));

  // The first and last listed lefts find their exact-name partners.
  for (rdf::EntityId l : {1u, 7u}) {
    auto r = right.FindEntityByIri("http://r/e" + std::to_string(l));
    ASSERT_TRUE(r.has_value());
    const std::span<const FeatureValue> fs = space.FeaturesOf(PackPair(l, *r));
    ASSERT_EQ(fs.size(), 1u) << l;
    EXPECT_DOUBLE_EQ(fs[0].score, 1.0);
  }
}

// The stop-value cap compares a block's size within one partition: |lefts
// of the partition with the key| × |right block|. One key shared by 9 lefts
// and 4 rights makes a 36-pair block for the whole left set, over a cap of
// 20, and a 12-pair block in each of 3 splits, under it. So the same pairs
// are skipped at P=1 and evaluated at P=3.
TEST(LinkSpaceStopValueTest, BlockCapIsPerPartition) {
  rdf::Dataset left{"l"};
  rdf::Dataset right{"r"};
  for (int i = 0; i < 9; ++i) {
    left.AddLiteralTriple("http://l/e" + std::to_string(i), "http://l/name",
                          Term::Literal("common"));
  }
  for (int i = 0; i < 4; ++i) {
    right.AddLiteralTriple("http://r/e" + std::to_string(i), "http://r/label",
                           Term::Literal("common"));
  }
  left.BuildEntityIndex();
  right.BuildEntityIndex();
  const size_t max_block_pairs = 20;

  std::vector<rdf::EntityId> all;
  for (rdf::EntityId e = 0; e < left.num_entities(); ++e) all.push_back(e);
  LinkSpace whole;
  whole.Build(left, right, all, 0.3, max_block_pairs);
  EXPECT_EQ(whole.stats().candidate_pairs, 0u);
  EXPECT_EQ(whole.size(), 0u);

  uint64_t evaluated = 0;
  size_t kept = 0;
  for (rdf::EntityId p = 0; p < 3; ++p) {
    std::vector<rdf::EntityId> split;
    for (rdf::EntityId e : all) {
      if (e % 3 == p) split.push_back(e);
    }
    LinkSpace space;
    space.Build(left, right, split, 0.3, max_block_pairs);
    evaluated += space.stats().candidate_pairs;
    kept += space.size();
  }
  EXPECT_EQ(evaluated, 36u);
  EXPECT_EQ(kept, 36u);
}

TEST(LinkSpaceScenarioTest, CoversMostGroundTruth) {
  datagen::ScenarioConfig config;
  config.seed = 77;
  config.num_shared = 80;
  config.num_left_only = 80;
  config.num_right_only = 40;
  config.domains = {"person"};
  config.value_noise = 0.5;
  datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  std::vector<rdf::EntityId> lefts;
  for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
    lefts.push_back(e);
  }
  LinkSpace space;
  space.Build(pair.left, pair.right, lefts, 0.3, 20000);
  size_t covered = 0;
  for (feedback::PairKey key : pair.truth.pairs()) {
    if (space.Contains(key)) ++covered;
  }
  // The space is ALEX's recall ceiling; blocking must retain nearly all
  // ground-truth pairs.
  EXPECT_GE(static_cast<double>(covered) / pair.truth.size(), 0.9);
  // And the theta filter must remove the vast majority of the cross
  // product (Figure 5a).
  EXPECT_LT(static_cast<double>(space.size()) /
                static_cast<double>(space.stats().total_possible),
            0.2);
}

}  // namespace
}  // namespace alex::core
