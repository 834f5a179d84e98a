#include "core/blocking.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "rdf/dataset.h"
#include "similarity/value.h"

namespace alex::core {
namespace {

using rdf::Term;

TEST(HashBlockKeyTest, DeterministicAndKindSeparated) {
  EXPECT_EQ(HashBlockKey(BlockKind::kValue, "lebron james"),
            HashBlockKey(BlockKind::kValue, "lebron james"));
  // The same text under different kinds must land in different blocks
  // (what "v:" / "t:" / "p:" string prefixes would namespace).
  EXPECT_NE(HashBlockKey(BlockKind::kValue, "lebron"),
            HashBlockKey(BlockKind::kToken, "lebron"));
  EXPECT_NE(HashBlockKey(BlockKind::kToken, "lebron"),
            HashBlockKey(BlockKind::kPrefix, "lebron"));
  EXPECT_NE(HashBlockKey(BlockKind::kValue, "a"),
            HashBlockKey(BlockKind::kValue, "b"));
}

TEST(ComputeTermBlockingKeysTest, ValueTokenAndPrefixKeys) {
  // "Lebron James" -> value key, two token keys, one prefix key ("lebro").
  std::vector<BlockKey> keys;
  ComputeTermBlockingKeys(Term::Literal("Lebron James"), &keys);
  std::vector<BlockKey> expected = {
      HashBlockKey(BlockKind::kValue, "lebron james"),
      HashBlockKey(BlockKind::kToken, "lebron"),
      HashBlockKey(BlockKind::kToken, "james"),
      HashBlockKey(BlockKind::kPrefix, "lebro"),
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);

  // Single-character tokens are skipped; short tokens carry no prefix key.
  ComputeTermBlockingKeys(Term::Literal("a bc"), &keys);
  expected = {HashBlockKey(BlockKind::kValue, "a bc"),
              HashBlockKey(BlockKind::kToken, "bc")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);

  // IRIs are keyed by their lowercased local name.
  ComputeTermBlockingKeys(Term::Iri("http://x/Lebron_James"), &keys);
  std::vector<BlockKey> iri_keys = keys;
  ComputeTermBlockingKeys(Term::Literal("lebron_james"), &keys);
  EXPECT_EQ(iri_keys, keys);

  ComputeTermBlockingKeys(Term::Literal(""), &keys);
  EXPECT_TRUE(keys.empty());
}

class TermKeyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two entities share the literal "Common Value"; e0 also repeats it
    // under a second predicate (same TermId, two occurrences).
    ds_.AddLiteralTriple("http://d/e0", "http://d/name",
                         Term::Literal("Common Value"));
    ds_.AddLiteralTriple("http://d/e0", "http://d/alias",
                         Term::Literal("Common Value"));
    ds_.AddLiteralTriple("http://d/e0", "http://d/note",
                         Term::Literal("Unique Zorp"));
    ds_.AddLiteralTriple("http://d/e1", "http://d/name",
                         Term::Literal("Common Value"));
    ds_.BuildEntityIndex();
  }

  rdf::Dataset ds_{"d"};
};

TEST_F(TermKeyCacheTest, SameTermIdSameCachedKeysNoRecompute) {
  TermKeyCache cache(ds_);
  // Two distinct object terms exist; each was computed exactly once even
  // though "Common Value" occurs three times across entities.
  EXPECT_EQ(cache.computed_terms(), 2u);

  const auto common = ds_.dict().Lookup(Term::Literal("Common Value"));
  ASSERT_TRUE(common.has_value());
  const std::span<const BlockKey> first = cache.keys(*common);
  const std::span<const BlockKey> second = cache.keys(*common);
  // Same TermId -> the same cached storage, byte for byte: lookups return
  // the memoized keys rather than recomputing.
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(cache.computed_terms(), 2u);

  // The cached keys equal a direct computation for the same term.
  std::vector<BlockKey> direct;
  ComputeTermBlockingKeys(ds_.dict().term(*common), &direct);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), direct.begin(),
                         direct.end()));
}

TEST_F(TermKeyCacheTest, EntityKeysAreDeduplicatedUnion) {
  TermKeyCache cache(ds_);
  const auto e0 = ds_.FindEntityByIri("http://d/e0");
  ASSERT_TRUE(e0.has_value());
  std::vector<BlockKey> keys;
  cache.EntityKeys(*e0, &keys);
  // e0 carries "Common Value" twice and "Unique Zorp" once; the union is
  // deduplicated and sorted (set semantics).
  std::vector<BlockKey> expected;
  std::vector<BlockKey> term_keys;
  ComputeTermBlockingKeys(Term::Literal("Common Value"), &term_keys);
  expected.insert(expected.end(), term_keys.begin(), term_keys.end());
  ComputeTermBlockingKeys(Term::Literal("Unique Zorp"), &term_keys);
  expected.insert(expected.end(), term_keys.begin(), term_keys.end());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(keys, expected);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_F(TermKeyCacheTest, NonObjectTermsHaveNoKeys) {
  TermKeyCache cache(ds_);
  // Predicates and subject IRIs never reach the blocking loop.
  const auto pred = ds_.dict().Lookup(Term::Iri("http://d/name"));
  ASSERT_TRUE(pred.has_value());
  EXPECT_TRUE(cache.keys(*pred).empty());
  EXPECT_TRUE(cache.keys(rdf::TermId{999999}).empty());
}

TEST_F(TermKeyCacheTest, ValueCacheMatchesDirectParse) {
  ValueCache values(ds_);
  const auto common = ds_.dict().Lookup(Term::Literal("Common Value"));
  ASSERT_TRUE(common.has_value());
  const uint32_t row = values.row(*common);
  const sim::TypedValue direct = sim::ParseValue(ds_.dict().term(*common));
  EXPECT_EQ(values.table().kind(row), direct.kind);
  EXPECT_EQ(values.table().lower(row), ToLowerAscii(direct.text));
  // One row per distinct attribute object: repeated lookups of a term
  // return its one row.
  EXPECT_EQ(values.row(*common), row);
  EXPECT_LT(row, values.table().size());
}

TEST(ValueCacheTypedTest, NumericAndDateTermsParseOnce) {
  rdf::Dataset ds("d");
  ds.AddLiteralTriple("http://d/e0", "http://d/year", Term::Literal("1984"));
  ds.AddLiteralTriple("http://d/e0", "http://d/born",
                      Term::Literal("1984-12-30"));
  ds.AddLiteralTriple("http://d/e0", "http://d/height",
                      Term::Literal("2.06"));
  ds.BuildEntityIndex();
  ValueCache values(ds);
  EXPECT_EQ(values.table().size(), 3u);
  const auto year = ds.dict().Lookup(Term::Literal("1984"));
  const auto born = ds.dict().Lookup(Term::Literal("1984-12-30"));
  const auto height = ds.dict().Lookup(Term::Literal("2.06"));
  ASSERT_TRUE(year && born && height);
  const sim::ValueTable& table = values.table();
  EXPECT_EQ(table.kind(values.row(*year)), sim::ValueKind::kInteger);
  EXPECT_EQ(table.real(values.row(*year)), 1984.0);
  EXPECT_EQ(table.kind(values.row(*born)), sim::ValueKind::kDate);
  EXPECT_EQ(table.date_days(values.row(*born)),
            sim::ParseValue(Term::Literal("1984-12-30")).date_days);
  EXPECT_EQ(table.kind(values.row(*height)), sim::ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(table.real(values.row(*height)), 2.06);
}

TEST(BlockingIndexTest, InvertsRightDatasetOnce) {
  rdf::Dataset right("r");
  right.AddLiteralTriple("http://r/a", "http://r/name",
                         Term::Literal("Shared Token Alpha"));
  right.AddLiteralTriple("http://r/b", "http://r/name",
                         Term::Literal("Shared Token Beta"));
  right.AddLiteralTriple("http://r/c", "http://r/name",
                         Term::Literal("Lonely"));
  right.BuildEntityIndex();
  BlockingIndex index(right);
  EXPECT_GT(index.num_blocks(), 0u);

  const auto a = right.FindEntityByIri("http://r/a");
  const auto b = right.FindEntityByIri("http://r/b");
  const auto c = right.FindEntityByIri("http://r/c");
  ASSERT_TRUE(a && b && c);

  // "shared" and "token" tokens block a and b together, in ascending order.
  const std::vector<rdf::EntityId>* block =
      index.block(HashBlockKey(BlockKind::kToken, "shared"));
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(*block, (std::vector<rdf::EntityId>{*a, *b}));

  // The full-value key isolates each entity.
  block = index.block(HashBlockKey(BlockKind::kValue, "lonely"));
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(*block, std::vector<rdf::EntityId>{*c});

  // Unknown keys have no block.
  EXPECT_EQ(index.block(HashBlockKey(BlockKind::kValue, "absent")), nullptr);

  // The index exposes the right dataset's memoized term keys.
  EXPECT_EQ(index.term_keys().computed_terms(), 3u);
}

}  // namespace
}  // namespace alex::core
