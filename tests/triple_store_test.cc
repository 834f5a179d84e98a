#include "rdf/triple_store.h"

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.h"

namespace alex::rdf {
namespace {

Triple T(TermId s, TermId p, TermId o) { return Triple{s, p, o}; }

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // s in {0,1,2}, p in {10,11}, o in {20,21,22}.
    store_.Add(T(0, 10, 20));
    store_.Add(T(0, 10, 21));
    store_.Add(T(0, 11, 22));
    store_.Add(T(1, 10, 20));
    store_.Add(T(2, 11, 21));
  }
  TripleStore store_;
};

TEST_F(TripleStoreTest, SizeDeduplicates) {
  EXPECT_EQ(store_.size(), 5u);
  store_.Add(T(0, 10, 20));  // Duplicate.
  EXPECT_EQ(store_.size(), 5u);
  store_.Add(T(3, 10, 20));
  EXPECT_EQ(store_.size(), 6u);
}

TEST_F(TripleStoreTest, Contains) {
  EXPECT_TRUE(store_.Contains(T(0, 10, 20)));
  EXPECT_FALSE(store_.Contains(T(0, 10, 22)));
}

TEST_F(TripleStoreTest, FullScan) {
  EXPECT_EQ(store_.Match(TriplePattern{}).size(), 5u);
}

TEST_F(TripleStoreTest, SubjectOnly) {
  auto r = store_.Match(TriplePattern{0, kInvalidTermId, kInvalidTermId});
  EXPECT_EQ(r.size(), 3u);
  for (const Triple& t : r) EXPECT_EQ(t.subject, 0u);
}

TEST_F(TripleStoreTest, SubjectPredicate) {
  auto r = store_.Match(TriplePattern{0, 10, kInvalidTermId});
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(TripleStoreTest, ExactTriple) {
  auto r = store_.Match(TriplePattern{0, 11, 22});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], T(0, 11, 22));
}

TEST_F(TripleStoreTest, SubjectObject) {
  auto r = store_.Match(TriplePattern{0, kInvalidTermId, 21});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], T(0, 10, 21));
}

TEST_F(TripleStoreTest, PredicateOnly) {
  EXPECT_EQ(store_.Match(TriplePattern{kInvalidTermId, 10, kInvalidTermId})
                .size(),
            3u);
  EXPECT_EQ(store_.Match(TriplePattern{kInvalidTermId, 11, kInvalidTermId})
                .size(),
            2u);
}

TEST_F(TripleStoreTest, PredicateObject) {
  auto r = store_.Match(TriplePattern{kInvalidTermId, 10, 20});
  EXPECT_EQ(r.size(), 2u);
  for (const Triple& t : r) {
    EXPECT_EQ(t.predicate, 10u);
    EXPECT_EQ(t.object, 20u);
  }
}

TEST_F(TripleStoreTest, ObjectOnly) {
  auto r = store_.Match(TriplePattern{kInvalidTermId, kInvalidTermId, 21});
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(TripleStoreTest, NoMatches) {
  EXPECT_TRUE(store_.Match(TriplePattern{9, kInvalidTermId, kInvalidTermId})
                  .empty());
  EXPECT_EQ(store_.CountMatches(TriplePattern{9, 10, 20}), 0u);
}

TEST_F(TripleStoreTest, CountMatches) {
  EXPECT_EQ(store_.CountMatches(TriplePattern{}), 5u);
  EXPECT_EQ(
      store_.CountMatches(TriplePattern{0, kInvalidTermId, kInvalidTermId}),
      3u);
}

TEST_F(TripleStoreTest, EarlyStop) {
  size_t seen = 0;
  store_.ForEachMatch(TriplePattern{}, [&seen](const Triple&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2u);
}

TEST_F(TripleStoreTest, DistinctPredicates) {
  EXPECT_EQ(store_.DistinctPredicates(), (std::vector<TermId>{10, 11}));
}

TEST_F(TripleStoreTest, DistinctSubjects) {
  EXPECT_EQ(store_.DistinctSubjects(), (std::vector<TermId>{0, 1, 2}));
}

TEST_F(TripleStoreTest, MutationAfterQueryRebuildsIndexes) {
  EXPECT_EQ(store_.size(), 5u);
  store_.Add(T(7, 10, 20));
  EXPECT_EQ(store_.CountMatches(TriplePattern{kInvalidTermId, 10, 20}), 3u);
}

TEST(TripleStoreEmptyTest, EmptyStore) {
  TripleStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Match(TriplePattern{}).empty());
  EXPECT_TRUE(store.DistinctPredicates().empty());
}

/// Property: every pattern shape answered from indexes equals brute force.
class TripleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStorePropertyTest, MatchesAgreeWithBruteForce) {
  alex::Rng rng(GetParam());
  TripleStore store;
  std::vector<Triple> all;
  for (int i = 0; i < 400; ++i) {
    Triple t{static_cast<TermId>(rng.UniformInt(12)),
             static_cast<TermId>(rng.UniformInt(5)),
             static_cast<TermId>(rng.UniformInt(15))};
    store.Add(t);
    all.push_back(t);
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  for (int trial = 0; trial < 200; ++trial) {
    TriplePattern p;
    if (rng.Bernoulli(0.5)) p.subject = static_cast<TermId>(rng.UniformInt(13));
    if (rng.Bernoulli(0.5)) {
      p.predicate = static_cast<TermId>(rng.UniformInt(6));
    }
    if (rng.Bernoulli(0.5)) p.object = static_cast<TermId>(rng.UniformInt(16));

    std::vector<Triple> expected;
    for (const Triple& t : all) {
      if (p.Matches(t)) expected.push_back(t);
    }
    std::vector<Triple> actual = store.Match(p);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(TripleStoreRangeTest, MaxTermIdMatchesBruteForce) {
  // kInvalidTermId is the wildcard and also ForEachMatch's upper range
  // sentinel, so kInvalidTermId - 1 is the largest legal component: every
  // index range must still include it.
  const TermId big = kInvalidTermId - 1;
  const std::vector<Triple> triples = {
      T(0, 0, 0), T(0, 0, big), T(big, big, big), T(big, 0, 5), T(7, big, 0),
  };
  TripleStore store;
  for (const Triple& t : triples) store.Add(t);
  const TermId kAny = kInvalidTermId;
  const std::vector<TriplePattern> patterns = {
      {kAny, kAny, kAny}, {big, kAny, kAny}, {kAny, big, kAny},
      {kAny, kAny, big},  {big, big, big},   {big, kAny, 5},
  };
  for (const TriplePattern& p : patterns) {
    std::vector<Triple> expected;
    for (const Triple& t : triples) {
      if (p.Matches(t)) expected.push_back(t);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<Triple> actual = store.Match(p);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected)
        << p.subject << " " << p.predicate << " " << p.object;
    EXPECT_EQ(store.CountMatches(p), expected.size());
  }

  // A callback returning false stops the full scan after one triple.
  size_t calls = 0;
  store.ForEachMatch(TriplePattern{}, [&calls](const Triple&) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1u);
}

// Cold-start concurrency: many threads issue the first reads against a
// freshly mutated store, so the lazy index build races. The dirty-flag +
// mutex double-check must serialize exactly one build. Run under TSan via
// the "sanitize" label.
TEST(TripleStoreConcurrencyTest, ConcurrentColdReadsAreSafe) {
  for (int round = 0; round < 20; ++round) {
    TripleStore store;
    Rng rng(1000 + round);
    for (int i = 0; i < 500; ++i) {
      store.Add(Triple{static_cast<TermId>(rng.UniformInt(40)),
                       static_cast<TermId>(rng.UniformInt(8)),
                       static_cast<TermId>(rng.UniformInt(60))});
    }
    const size_t expected = store.Match(TriplePattern{}).size();
    // Dirty the indexes again so every reader starts cold.
    store.Add(Triple{1000, 1000, 1000});

    std::atomic<size_t> total{0};
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&store, &total, &mismatch, expected, t] {
        size_t seen = 0;
        TriplePattern p;
        if (t % 2 == 0) p.subject = static_cast<TermId>(t);
        store.ForEachMatch(p, [&seen](const Triple&) {
          ++seen;
          return true;
        });
        if (t % 2 != 0 && seen != expected + 1) mismatch.store(true);
        total.fetch_add(seen);
        // Mixed reads through the other entry points.
        if (store.size() != expected + 1) mismatch.store(true);
        if (store.DistinctPredicates().empty()) mismatch.store(true);
      });
    }
    for (std::thread& reader : readers) reader.join();
    EXPECT_FALSE(mismatch.load()) << "round " << round;
    EXPECT_GT(total.load(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace alex::rdf
