#include "similarity/similarity.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/blocking.h"
#include "core/feature.h"
#include "datagen/generator.h"

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

// --- Table-based ValueSimilarity: the sketch skip is exact ----------------

/// Attribute values as the link-space build sees them: parsed, and added to
/// a ValueTable in order, so value `i` is row `i`.
struct Values {
  std::vector<TypedValue> parsed;
  ValueTable table;

  uint32_t Add(const std::string& lexical) {
    parsed.push_back(ParseValue(Term::Literal(lexical)));
    return table.Add(parsed.back());
  }
};

/// What the sketch bound must cover: the string branch's score, which is
/// max(trigram Dice, token Jaccard) unless the lowercase forms are equal.
double ExactStringScore(std::string_view a, std::string_view b) {
  const std::string la = ToLowerAscii(a);
  const std::string lb = ToLowerAscii(b);
  return std::max({StringSimilarity(a, b), TrigramDiceSimilarity(la, lb),
                   TokenJaccardSimilarity(la, lb)});
}

void ExpectBoundCovers(const ValueTable& ta, uint32_t i, const ValueTable& tb,
                       uint32_t j) {
  const double exact = ExactStringScore(ta.lower(i), tb.lower(j));
  EXPECT_GE(SketchUpperBound(ta.sketch(i), tb.sketch(j)), exact)
      << "a=" << ta.lower(i) << " b=" << tb.lower(j);
}

/// Scores one cell through both overloads at `theta`: a scored cell must
/// equal the direct score bit for bit, a skipped cell must read 0.0 where
/// the direct score is below `theta`. Returns the table call's cell count
/// and adds it to `*total` when given.
CellCounts ExpectCellExact(const Values& a, uint32_t i, const Values& b,
                           uint32_t j, double theta,
                           CellCounts* total = nullptr) {
  CellCounts cells;
  const double direct = ValueSimilarity(a.parsed[i], b.parsed[j]);
  const double cell = ValueSimilarity(a.table, i, b.table, j, theta, &cells);
  EXPECT_EQ(cells.scored + cells.skipped, 1u);
  if (cells.skipped == 1) {
    EXPECT_LT(direct, theta) << "a=" << a.parsed[i].text
                             << " b=" << b.parsed[j].text;
    EXPECT_EQ(cell, 0.0);
  } else {
    EXPECT_EQ(std::memcmp(&direct, &cell, sizeof(double)), 0)
        << "a=" << a.parsed[i].text << " b=" << b.parsed[j].text << ": "
        << direct << " vs " << cell;
  }
  if (total != nullptr) {
    total->scored += cells.scored;
    total->skipped += cells.skipped;
  }
  return cells;
}

CellCounts ExpectCellExact(const std::string& a, const std::string& b,
                           double theta) {
  Values va;
  Values vb;
  return ExpectCellExact(va, va.Add(a), vb, vb.Add(b), theta);
}

TEST(ValueTableTest, RowsHoldTheLowercaseProfile) {
  Values v;
  const uint32_t row = v.Add("James, LeBron James");
  EXPECT_EQ(row, 0u);
  EXPECT_EQ(v.table.kind(row), ValueKind::kString);
  EXPECT_EQ(v.table.lower(row), "james, lebron james");
  ASSERT_EQ(v.table.num_tokens(row), 2u);
  EXPECT_EQ(v.table.token(row, 0), "james");
  EXPECT_EQ(v.table.token(row, 1), "lebron");
  EXPECT_EQ(v.table.trigrams(row).size(), 17u);
  EXPECT_TRUE(std::is_sorted(v.table.trigrams(row).begin(),
                             v.table.trigrams(row).end()));
  const TermSketch& sketch = v.table.sketch(row);
  EXPECT_EQ(sketch.num_grams, 17u);
  EXPECT_EQ(sketch.num_tokens, 2u);
  EXPECT_TRUE(sketch.prunable);
  const uint32_t year = v.Add("1984");
  EXPECT_EQ(v.table.kind(year), ValueKind::kInteger);
  EXPECT_EQ(v.table.real(year), 1984.0);
  const uint32_t born = v.Add("1984-12-30");
  EXPECT_EQ(v.table.kind(born), ValueKind::kDate);
  EXPECT_EQ(v.table.date_days(born), v.parsed[born].date_days);
  // The first row's pooled storage is untouched by later rows.
  EXPECT_EQ(v.table.token(row, 1), "lebron");
}

TEST(SketchBoundTest, CoversHandPickedEdgeCases) {
  const std::vector<std::string> cases = {
      "LeBron James", "lebron JAMES", "James, LeBron", "ab", "AB", "x", "",
      "!?", "!!!", "???", "1990", "nineteen ninety", "1990-01-01", "3.25",
      std::string(300, 'a'), std::string(34, 'a') + " b", "aaaa", "aaa",
      "caf\xc3\xa9 cr\xc3\xa8me", "cafe creme", "\xff\xfe\xfd\xfc",
      "night", "nacht", "madrid", "tokyo", "ab cdefg", "hijkl ab"};
  Values v;
  for (const std::string& c : cases) v.Add(c);
  for (uint32_t i = 0; i < v.table.size(); ++i) {
    for (uint32_t j = 0; j < v.table.size(); ++j) {
      ExpectBoundCovers(v.table, i, v.table, j);
      for (double theta : {0.0, 0.3, 0.9, 1.0}) {
        ExpectCellExact(v, i, v, j, theta);
      }
    }
  }
}

TEST(SketchBoundTest, CoversEveryTermPairOfAGeneratedScenario) {
  datagen::ScenarioConfig config;
  config.seed = 77;
  config.num_shared = 40;
  config.num_left_only = 20;
  config.num_right_only = 20;
  config.domains = {"person", "organization", "place"};
  config.value_noise = 0.5;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  const core::ValueCache left(pair.left);
  const core::ValueCache right(pair.right);
  ASSERT_GT(left.table().size(), 100u);
  ASSERT_GT(right.table().size(), 100u);
  uint64_t below = 0;
  for (uint32_t i = 0; i < left.table().size(); ++i) {
    for (uint32_t j = 0; j < right.table().size(); ++j) {
      const double exact =
          ExactStringScore(left.table().lower(i), right.table().lower(j));
      const double bound =
          SketchUpperBound(left.table().sketch(i), right.table().sketch(j));
      ASSERT_GE(bound, exact) << "a=" << left.table().lower(i)
                              << " b=" << right.table().lower(j);
      below += bound < 0.3;
    }
  }
  EXPECT_GT(below, 0u);
}

TEST(SketchBoundTest, UnprunableStringsBoundAtOne) {
  Values v;
  for (const char* s : {"ab", "!?", "!!!"}) {
    EXPECT_FALSE(v.table.sketch(v.Add(s)).prunable) << s;
  }
  // A bucket holds at most 31: 31 copies of one trigram fit, 32 do not.
  EXPECT_TRUE(v.table.sketch(v.Add(std::string(33, 'a'))).prunable);
  const uint32_t long_run = v.Add(std::string(34, 'a'));
  EXPECT_FALSE(v.table.sketch(long_run).prunable);
  const uint32_t word = v.Add("zebra");
  EXPECT_TRUE(v.table.sketch(word).prunable);
  for (uint32_t i = 0; i < word; ++i) {
    if (v.table.sketch(i).prunable) continue;
    EXPECT_EQ(SketchUpperBound(v.table.sketch(i), v.table.sketch(word)), 1.0);
    EXPECT_EQ(ExpectCellExact(v, i, v, word, 1.0).skipped, 0u);
  }
}

TEST(TableValueSimilarityTest, EqualStringsScoreOneAndAreNeverSkipped) {
  Values v;
  const uint32_t a = v.Add("Barack Obama");
  const uint32_t b = v.Add("barack OBAMA");
  EXPECT_EQ(SketchUpperBound(v.table.sketch(a), v.table.sketch(b)), 1.0);
  EXPECT_EQ(ExpectCellExact(v, a, v, b, 1.0).skipped, 0u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(v.table, a, v.table, b, 1.0, &cells), 1.0);
}

TEST(TableValueSimilarityTest, PunctuationOnlyStringsAreNeverSkipped) {
  // No tokens on either side: token Jaccard of two empty sets is 1.0.
  Values v;
  const uint32_t a = v.Add("!!!");
  const uint32_t b = v.Add("???");
  EXPECT_EQ(ExpectCellExact(v, a, v, b, 1.0).skipped, 0u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(v.table, a, v.table, b, 1.0, &cells), 1.0);
  EXPECT_EQ(ExpectCellExact("!!!", "xyz", 0.3).skipped, 0u);
}

TEST(TableValueSimilarityTest, ShortStringsAreNeverSkipped) {
  // Under 3 characters trigram Dice falls back to whole-string equality.
  EXPECT_EQ(ExpectCellExact("ab", "xy", 0.9).skipped, 0u);
  EXPECT_EQ(ExpectCellExact("ab", "AB", 1.0).skipped, 0u);
  EXPECT_EQ(ExpectCellExact("q", "xyz uvw", 0.3).skipped, 0u);
}

TEST(TableValueSimilarityTest, SharedShortTokenWithDisjointTrigrams) {
  // {ab, cdefg} vs {ab, hijkl}: no trigram in common, Jaccard 1/3.
  Values v;
  const uint32_t a = v.Add("ab cdefg");
  const uint32_t b = v.Add("hijkl ab");
  EXPECT_EQ(ExpectCellExact(v, a, v, b, 0.3).scored, 1u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(v.table, a, v.table, b, 0.3, &cells), 1.0 / 3.0);
}

TEST(TableValueSimilarityTest, NumericAndDatePairsNeverReachTheSketch) {
  // Disjoint lexical forms, but numeric/numeric and date/date cells score
  // on their typed values.
  EXPECT_EQ(ExpectCellExact("100", "250", 1.0).skipped, 0u);
  EXPECT_EQ(ExpectCellExact("1990-01-01", "2005-07-15", 1.0).skipped, 0u);
  // Mixed kinds take the string path and may be skipped.
  ExpectCellExact("1990", "nineteen ninety", 0.3);
  ExpectCellExact("1990-01-01", "new year's day", 0.3);
  ExpectCellExact("3.25", "1990-01-01", 0.3);
}

TEST(TableValueSimilarityTest, CollidingTokenBucketsFallBackToTheMerges) {
  // "madrid" and "tokyo" share no trigram and no token, but their tokens
  // hash to one bucket: the bound reads 1.0 and the merges score 0.0.
  Values v;
  const uint32_t a = v.Add("madrid");
  const uint32_t b = v.Add("tokyo");
  EXPECT_EQ(SketchUpperBound(v.table.sketch(a), v.table.sketch(b)), 1.0);
  EXPECT_EQ(ExpectCellExact(v, a, v, b, 0.3).scored, 1u);
  CellCounts cells;
  EXPECT_EQ(ValueSimilarity(v.table, a, v.table, b, 0.3, &cells), 0.0);
}

TEST(TableValueSimilarityTest, DisjointStringsAreSkipped) {
  EXPECT_EQ(ExpectCellExact("night", "nacht", 0.3).skipped, 1u);
  // No cell is ever skipped at θ = 0: every bound is at least 0.
  EXPECT_EQ(ExpectCellExact("night", "nacht", 0.0).skipped, 0u);
}

TEST(TableValueSimilarityTest, SeededCorpusIsExactAtEveryTheta) {
  // Random strings over a small alphabet (so many pairs share grams or
  // tokens), numbers and dates; every ordered pair is compared.
  Rng rng(2007);
  const std::string alphabet = "abcdefghijklmnop0123456789  -,.!";
  Values corpus;
  for (int i = 0; i < 240; ++i) {
    std::string s;
    const size_t len = rng.UniformInt(15);
    for (size_t k = 0; k < len; ++k) {
      s += alphabet[rng.UniformInt(alphabet.size())];
    }
    corpus.Add(s);
  }
  for (int i = 0; i < 30; ++i) {
    corpus.Add(std::to_string(1900 + rng.UniformInt(150)));
    corpus.Add(std::to_string(1990 + rng.UniformInt(20)) + "-0" +
               std::to_string(1 + rng.UniformInt(9)) + "-1" +
               std::to_string(rng.UniformInt(10)));
  }
  const size_t n = corpus.table.size();
  for (double theta : {0.0, 0.3}) {
    CellCounts total;
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < n; ++j) {
        ExpectBoundCovers(corpus.table, i, corpus.table, j);
        ExpectCellExact(corpus, i, corpus, j, theta, &total);
      }
    }
    EXPECT_EQ(total.scored + total.skipped, n * n);
    EXPECT_GT(total.scored, 0u);
    if (theta > 0.0) {
      EXPECT_GT(total.skipped, 0u);
    } else {
      EXPECT_EQ(total.skipped, 0u);
    }
  }
}

TEST(TableValueSimilarityTest, AppendFeatureSetMatchesComputeFeatureSet) {
  // Every left x right entity pair of a small scenario, at thresholds that
  // skip nothing (0.0), the paper's (0.3), and near the top (0.9, 1.0).
  datagen::ScenarioConfig config;
  config.seed = 31;
  config.num_shared = 20;
  config.num_left_only = 10;
  config.num_right_only = 10;
  config.domains = {"person", "drug"};
  config.value_noise = 0.5;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  const core::ValueCache left_values(pair.left);
  const core::ValueCache right_values(pair.right);
  for (double theta : {0.0, 0.3, 0.9, 1.0}) {
    core::FeatureScratch scratch;
    size_t kept = 0;
    for (rdf::EntityId l = 0; l < pair.left.num_entities(); ++l) {
      for (rdf::EntityId r = 0; r < pair.right.num_entities(); ++r) {
        const core::FeatureSet direct =
            core::ComputeFeatureSet(pair.left, l, pair.right, r, theta);
        core::FeatureSet built;
        core::AppendFeatureSet(pair.left, l, pair.right, r, theta,
                               left_values, right_values, &scratch, &built);
        ASSERT_EQ(built.size(), direct.size()) << theta;
        for (size_t k = 0; k < built.size(); ++k) {
          EXPECT_EQ(built[k].key, direct[k].key);
          EXPECT_EQ(std::memcmp(&built[k].score, &direct[k].score,
                                sizeof(double)),
                    0)
              << theta;
        }
        kept += !built.empty();
      }
    }
    EXPECT_GT(kept, 0u) << theta;
    if (theta > 0.0) {
      EXPECT_GT(scratch.cells.skipped, 0u) << theta;
    } else {
      EXPECT_EQ(scratch.cells.skipped, 0u);
    }
  }
}

}  // namespace
}  // namespace alex::sim
