#include "similarity/string_metrics.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace alex::sim {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", ""), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7, 1e-9);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.813333, 1e-5);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
  // No common prefix: equals plain Jaro.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abcd", "xbcd"),
                   JaroSimilarity("abcd", "xbcd"));
}

TEST(TokenJaccardTest, Values) {
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a b", ""), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("lebron james", "James, LeBron"),
                   1.0);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a b", "b c"), 1.0 / 3);
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a b", "c d"), 0.0);
  // Duplicate tokens collapse into a set.
  EXPECT_DOUBLE_EQ(TokenJaccardSimilarity("a a b", "a b"), 1.0);
}

TEST(TrigramDiceTest, Values) {
  EXPECT_DOUBLE_EQ(TrigramDiceSimilarity("abcdef", "abcdef"), 1.0);
  EXPECT_DOUBLE_EQ(TrigramDiceSimilarity("abcdef", "uvwxyz"), 0.0);
  // Short strings fall back to exact equality.
  EXPECT_DOUBLE_EQ(TrigramDiceSimilarity("ab", "ab"), 1.0);
  EXPECT_DOUBLE_EQ(TrigramDiceSimilarity("ab", "ba"), 0.0);
  // "night" vs "nacht": grams {nig, igh, ght} vs {nac, ach, cht}: 0 shared.
  EXPECT_DOUBLE_EQ(TrigramDiceSimilarity("night", "nacht"), 0.0);
  // One deletion in a longer string keeps most grams.
  double sim = TrigramDiceSimilarity("abcdefghij", "abcdefghi");
  EXPECT_GT(sim, 0.8);
  EXPECT_LT(sim, 1.0);
}

TEST(TrigramDiceTest, MultisetSemantics) {
  // "aaaa" has grams {aaa, aaa}; "aaa" has {aaa}: intersection 1 of 3 total.
  EXPECT_NEAR(TrigramDiceSimilarity("aaaa", "aaa"), 2.0 / 3, 1e-9);
}

TEST(TermSketchTest, BucketsComeFromFixedHashes) {
  // Pinned buckets: the sketch uses fixed hashes, not std::hash, so a
  // build's skipped-cell counts repeat on every platform. Two of the ten
  // distinct trigrams of "lebron james" share bucket 99.
  const std::vector<uint32_t> grams = Trigrams("lebron james");
  const std::vector<std::string> tokens = {"james", "lebron"};
  const TermSketch s = MakeTermSketch(grams, tokens);
  std::vector<std::pair<int, int>> gram_buckets;
  for (int b = 0; b < 128; ++b) {
    if (s.grams[b] != 0) gram_buckets.emplace_back(b, s.grams[b]);
  }
  const std::vector<std::pair<int, int>> expected_grams = {
      {16, 1}, {19, 1}, {29, 1}, {48, 1}, {90, 1},
      {94, 1}, {99, 2}, {101, 1}, {114, 1}};
  EXPECT_EQ(gram_buckets, expected_grams);
  std::vector<int> token_buckets;
  for (int b = 0; b < 32; ++b) {
    if (s.tokens[b] != 0) token_buckets.push_back(b);
  }
  EXPECT_EQ(token_buckets, (std::vector<int>{2, 31}));
  EXPECT_EQ(s.num_grams, 10u);
  EXPECT_EQ(s.num_tokens, 2u);
  EXPECT_TRUE(s.prunable);
  // No trigrams, no tokens: empty buckets, and no pruning.
  const TermSketch empty = MakeTermSketch({}, {});
  EXPECT_EQ(empty.grams, TermSketch{}.grams);
  EXPECT_EQ(empty.tokens, TermSketch{}.tokens);
  EXPECT_FALSE(empty.prunable);
}

/// Property sweep: all metrics are symmetric, bounded to [0,1], and reflexive.
class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, SymmetricBoundedReflexive) {
  alex::Rng rng(GetParam());
  auto random_string = [&rng]() {
    std::string s;
    const size_t len = rng.UniformInt(12);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.UniformInt(6));
    }
    return s;
  };
  for (int i = 0; i < 200; ++i) {
    const std::string a = random_string();
    const std::string b = random_string();
    for (auto metric : {LevenshteinSimilarity, JaroSimilarity,
                        JaroWinklerSimilarity, TokenJaccardSimilarity,
                        TrigramDiceSimilarity}) {
      const double ab = metric(a, b);
      const double ba = metric(b, a);
      EXPECT_DOUBLE_EQ(ab, ba) << "a=" << a << " b=" << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      EXPECT_DOUBLE_EQ(metric(a, a), 1.0) << "a=" << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Values(1, 7, 42, 1001));

}  // namespace
}  // namespace alex::sim
