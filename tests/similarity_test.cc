#include "similarity/similarity.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace alex::sim {
namespace {

using rdf::Term;

TEST(NumericSimilarityTest, EqualIsOne) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(5.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 0.0), 1.0);
}

TEST(NumericSimilarityTest, SteepDecay) {
  // 1% relative difference -> ~0.8; 5%+ -> 0.
  EXPECT_NEAR(NumericSimilarity(100.0, 101.0), 1.0 - 20.0 / 101.0, 1e-9);
  EXPECT_DOUBLE_EQ(NumericSimilarity(100.0, 111.2), 0.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(1.0, 2.0), 0.0);
}

TEST(NumericSimilarityTest, SymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(3.0, 4.0), NumericSimilarity(4.0, 3.0));
  EXPECT_GE(NumericSimilarity(-5.0, 5.0), 0.0);
}

TEST(NumericSimilarityTest, SmallMagnitudesUseFloorDenominator) {
  // Denominator floors at 1 so near-zero values don't explode.
  EXPECT_NEAR(NumericSimilarity(0.01, 0.02), 1.0 - 20.0 * 0.01, 1e-9);
}

TEST(DateSimilarityTest, Decay) {
  EXPECT_DOUBLE_EQ(DateSimilarity(100, 100), 1.0);
  EXPECT_NEAR(DateSimilarity(0, 73), 1.0 - 73.0 / 547.0, 1e-9);
  EXPECT_DOUBLE_EQ(DateSimilarity(0, 547), 0.0);     // Eighteen months.
  EXPECT_DOUBLE_EQ(DateSimilarity(0, 10000), 0.0);
  EXPECT_DOUBLE_EQ(DateSimilarity(0, -73), DateSimilarity(0, 73));
}

TEST(StringSimilarityTest, SharpOnUnrelatedStrings) {
  EXPECT_DOUBLE_EQ(StringSimilarity("Belcaster", "Quillian"), 0.0);
  EXPECT_LT(StringSimilarity("Tasopra Elkonomi", "Norvek Durrenba"), 0.3);
}

TEST(StringSimilarityTest, CaseInsensitiveExactIsOne) {
  EXPECT_DOUBLE_EQ(StringSimilarity("LeBron James", "lebron JAMES"), 1.0);
}

TEST(StringSimilarityTest, TokenReorderIsOne) {
  EXPECT_DOUBLE_EQ(StringSimilarity("LeBron James", "James, LeBron"), 1.0);
}

TEST(StringSimilarityTest, TypoScoresHigh) {
  const double sim = StringSimilarity("Tasopra Elkonomi", "Tasopra Elkonmi");
  EXPECT_GT(sim, 0.6);
  EXPECT_LT(sim, 1.0);
}

TEST(ValueSimilarityTest, DispatchesNumeric) {
  TypedValue a = ParseValue(Term::Literal("100"));
  TypedValue b = ParseValue(Term::Literal("100.0"));
  EXPECT_DOUBLE_EQ(ValueSimilarity(a, b), 1.0);  // Integer vs double: numeric.
}

TEST(ValueSimilarityTest, DispatchesDates) {
  TypedValue a = ParseValue(Term::Literal("1990-01-01"));
  TypedValue b = ParseValue(Term::Literal("1990-01-01"));
  EXPECT_DOUBLE_EQ(ValueSimilarity(a, b), 1.0);
}

TEST(ValueSimilarityTest, MixedTypesFallBackToStrings) {
  TypedValue num = ParseValue(Term::Literal("1990"));
  TypedValue str = ParseValue(Term::Literal("1990-ish"));
  const double sim = ValueSimilarity(num, str);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
}

TEST(TermSimilarityTest, EndToEnd) {
  EXPECT_DOUBLE_EQ(
      TermSimilarity(Term::Literal("Alpha Beta"), Term::Literal("Beta Alpha")),
      1.0);
  EXPECT_DOUBLE_EQ(TermSimilarity(Term::Iri("http://x/class/Person"),
                                  Term::Iri("http://y/type#Person")),
                   1.0);
  EXPECT_DOUBLE_EQ(
      TermSimilarity(
          Term::TypedLiteral("10", std::string(rdf::kXsdInteger)),
          Term::TypedLiteral("20", std::string(rdf::kXsdInteger))),
      0.0);
}

TEST(TermSimilarityTest, RangeInvariant) {
  const Term terms[] = {
      Term::Literal("abc"), Term::Literal("12"), Term::Literal("1.5"),
      Term::Literal("2001-05-06"), Term::Iri("http://x/Name"),
      Term::Literal("")};
  for (const Term& a : terms) {
    for (const Term& b : terms) {
      const double s = TermSimilarity(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, TermSimilarity(b, a));
    }
  }
}

// --- Profiled ValueSimilarity: the mask skip is exact ----------------------

/// One attribute value as the link-space build sees it.
struct ProfiledValue {
  TypedValue value;
  StringProfile profile;
};

ProfiledValue Profiled(const std::string& lexical) {
  ProfiledValue v{ParseValue(Term::Literal(lexical)), {}};
  v.profile = MakeStringProfile(v.value.text);
  return v;
}

bool SharesGramOrToken(const StringProfile& a, const StringProfile& b) {
  std::vector<uint32_t> grams;
  std::set_intersection(a.trigrams.begin(), a.trigrams.end(),
                        b.trigrams.begin(), b.trigrams.end(),
                        std::back_inserter(grams));
  std::vector<std::string> tokens;
  std::set_intersection(a.tokens.begin(), a.tokens.end(), b.tokens.begin(),
                        b.tokens.end(), std::back_inserter(tokens));
  return !grams.empty() || !tokens.empty();
}

/// Scores one cell through both overloads, requires the same double bit
/// for bit, and requires the mask test to be sound on it. Returns the
/// profiled call's cell count and adds it to `*total` when given.
CellCounts ExpectProfiledMatchesDirect(const ProfiledValue& a,
                                       const ProfiledValue& b,
                                       CellCounts* total = nullptr) {
  CellCounts cells;
  const double direct = ValueSimilarity(a.value, b.value);
  const double profiled =
      ValueSimilarity(a.value, b.value, a.profile, b.profile, &cells);
  EXPECT_EQ(std::memcmp(&direct, &profiled, sizeof(double)), 0)
      << "a=" << a.value.text << " b=" << b.value.text << ": " << direct
      << " vs " << profiled;
  if (ProfilesDisjoint(a.profile, b.profile)) {
    EXPECT_FALSE(SharesGramOrToken(a.profile, b.profile))
        << "a=" << a.value.text << " b=" << b.value.text;
  }
  EXPECT_EQ(cells.scored + cells.skipped, 1u);
  if (total != nullptr) {
    total->scored += cells.scored;
    total->skipped += cells.skipped;
  }
  return cells;
}

CellCounts ExpectProfiledMatchesDirect(const std::string& a,
                                       const std::string& b) {
  return ExpectProfiledMatchesDirect(Profiled(a), Profiled(b));
}

TEST(ProfiledValueSimilarityTest, ShortStringsAreNeverSkipped) {
  // Under 3 characters trigram Dice falls back to whole-string equality.
  EXPECT_EQ(ExpectProfiledMatchesDirect("ab", "xy").skipped, 0u);
  EXPECT_EQ(ExpectProfiledMatchesDirect("ab", "AB").skipped, 0u);
  EXPECT_EQ(ExpectProfiledMatchesDirect("q", "xyz uvw").skipped, 0u);
}

TEST(ProfiledValueSimilarityTest, EqualStringsScoreOneAndAreNeverSkipped) {
  const ProfiledValue a = Profiled("Barack Obama");
  const ProfiledValue b = Profiled("barack OBAMA");
  EXPECT_FALSE(ProfilesDisjoint(a.profile, b.profile));
  EXPECT_EQ(ExpectProfiledMatchesDirect(a, b).skipped, 0u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(a.value, b.value, a.profile, b.profile, &cells),
            1.0);
}

TEST(ProfiledValueSimilarityTest, PunctuationOnlyStringsAreNeverSkipped) {
  // No tokens on either side: token Jaccard of two empty sets is 1.0.
  const ProfiledValue a = Profiled("!!!");
  const ProfiledValue b = Profiled("???");
  EXPECT_EQ(ExpectProfiledMatchesDirect(a, b).skipped, 0u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(a.value, b.value, a.profile, b.profile, &cells),
            1.0);
  EXPECT_EQ(ExpectProfiledMatchesDirect("!!!", "xyz").skipped, 0u);
}

TEST(ProfiledValueSimilarityTest, SharedShortTokenWithDisjointTrigrams) {
  // {ab, cdefg} vs {ab, hijkl}: no trigram in common, Jaccard 1/3.
  const ProfiledValue a = Profiled("ab cdefg");
  const ProfiledValue b = Profiled("hijkl ab");
  EXPECT_EQ(ExpectProfiledMatchesDirect(a, b).skipped, 0u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(a.value, b.value, a.profile, b.profile, &cells),
            1.0 / 3.0);
}

TEST(ProfiledValueSimilarityTest, NumericAndDatePairsNeverReachTheMaskTest) {
  // Disjoint lexical forms, but numeric/numeric and date/date cells score
  // on their typed values.
  EXPECT_EQ(ExpectProfiledMatchesDirect("100", "250").skipped, 0u);
  EXPECT_EQ(ExpectProfiledMatchesDirect("1990-01-01", "2005-07-15").skipped,
            0u);
  // Mixed kinds take the string path and may be skipped.
  ExpectProfiledMatchesDirect("1990", "nineteen ninety");
  ExpectProfiledMatchesDirect("1990-01-01", "new year's day");
  ExpectProfiledMatchesDirect("3.25", "1990-01-01");
}

TEST(ProfiledValueSimilarityTest, CollidingMasksFallBackToTheMerges) {
  // Neither pair shares a trigram or a token, but "berlin" and "vienna"
  // have trigrams on one gram-mask bit, and "madrid" and "tokyo" hash to
  // one token-mask bit: the test declines and the merges score 0.0.
  for (const auto& [lhs, rhs] :
       {std::pair<std::string, std::string>{"berlin", "vienna"},
        std::pair<std::string, std::string>{"madrid", "tokyo"}}) {
    const ProfiledValue a = Profiled(lhs);
    const ProfiledValue b = Profiled(rhs);
    EXPECT_FALSE(SharesGramOrToken(a.profile, b.profile)) << lhs;
    EXPECT_FALSE(ProfilesDisjoint(a.profile, b.profile)) << lhs;
    EXPECT_EQ(ExpectProfiledMatchesDirect(a, b).scored, 1u) << lhs;
  }
}

TEST(ProfiledValueSimilarityTest, DisjointStringsAreSkippedAtZero) {
  const ProfiledValue a = Profiled("night");
  const ProfiledValue b = Profiled("nacht");
  EXPECT_TRUE(ProfilesDisjoint(a.profile, b.profile));
  EXPECT_EQ(ExpectProfiledMatchesDirect(a, b).skipped, 1u);
}

TEST(ProfiledValueSimilarityTest, SeededCorpusMatchesDirectBitForBit) {
  // Random strings over a small alphabet (so many pairs share grams or
  // tokens), numbers and dates; every ordered pair is compared.
  Rng rng(2007);
  const std::string alphabet = "abcdefghijklmnop0123456789  -,.!";
  std::vector<ProfiledValue> corpus;
  for (int i = 0; i < 240; ++i) {
    std::string s;
    const size_t len = rng.UniformInt(15);
    for (size_t k = 0; k < len; ++k) {
      s += alphabet[rng.UniformInt(alphabet.size())];
    }
    corpus.push_back(Profiled(s));
  }
  for (int i = 0; i < 30; ++i) {
    corpus.push_back(Profiled(std::to_string(1900 + rng.UniformInt(150))));
    corpus.push_back(Profiled(std::to_string(1990 + rng.UniformInt(20)) +
                              "-0" + std::to_string(1 + rng.UniformInt(9)) +
                              "-1" + std::to_string(rng.UniformInt(10))));
  }
  CellCounts total;
  for (const ProfiledValue& a : corpus) {
    for (const ProfiledValue& b : corpus) {
      ExpectProfiledMatchesDirect(a, b, &total);
    }
  }
  EXPECT_EQ(total.scored + total.skipped, corpus.size() * corpus.size());
  EXPECT_GT(total.skipped, 0u);
  EXPECT_GT(total.scored, 0u);
}

}  // namespace
}  // namespace alex::sim
